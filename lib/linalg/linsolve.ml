(* Linter escape, audited file-wide: raises are the documented
   [Singular] signal plus [Invalid_argument] precondition failures with
   test-locked messages; lib/robust depends on linalg, so [Sider_error]
   would be a cycle. *)
[@@@sider.allow "error-discipline"]

exception Singular

let lu a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Linsolve.lu: not square";
  let lu = Mat.copy a in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    (* Partial pivoting: find the row with the largest magnitude in col k. *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !pivot k) then
        pivot := i
    done;
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = Mat.get lu k j in
        Mat.set lu k j (Mat.get lu !pivot j);
        Mat.set lu !pivot j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    let pkk = Mat.get lu k k in
    (* Exact-zero pivot test; bit-exact on purpose. *)
    if (pkk = 0.0) [@sider.allow "float-equality"] then raise Singular;
    for i = k + 1 to n - 1 do
      let f = Mat.get lu i k /. pkk in
      Mat.set lu i k f;
      if (f <> 0.0) [@sider.allow "float-equality"] then
        for j = k + 1 to n - 1 do
          Mat.set lu i j (Mat.get lu i j -. (f *. Mat.get lu k j))
        done
    done
  done;
  (lu, perm)

let solve_lu (lu, perm) b =
  let n, _ = Mat.dims lu in
  let y = Array.init n (fun i -> b.(perm.(i))) in
  for i = 0 to n - 1 do
    for k = 0 to i - 1 do
      y.(i) <- y.(i) -. (Mat.get lu i k *. y.(k))
    done
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (Mat.get lu i k *. x.(k))
    done;
    x.(i) <- !acc /. Mat.get lu i i
  done;
  x

let inverse a =
  let n, _ = Mat.dims a in
  let fact = lu a in
  let inv = Mat.create n n in
  for j = 0 to n - 1 do
    let x = solve_lu fact (Vec.basis n j) in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv

let woodbury_rank1 sigma lambda w =
  let g = Mat.mv sigma w in
  let c = Vec.dot w g in
  let denom = 1.0 +. (lambda *. c) in
  if denom <= 0.0 then
    invalid_arg "Linsolve.woodbury_rank1: update makes matrix indefinite";
  let out = Mat.copy sigma in
  Mat.rank1_update out (-.lambda /. denom) g;
  out
