(* Linter escape, audited file-wide: raises are the documented
   [Not_positive_definite] signal plus [Invalid_argument] precondition
   failures with test-locked messages; lib/robust depends on linalg, so
   [Sider_error] would be a cycle.  Float [=] sites below are exact-zero
   pivot tests annotated individually. *)
[@@@sider.allow "error-discipline"]

exception Not_positive_definite

(* Every loop reads and writes the flat arrays: a cross-module
   [Mat.get] or [Mat.set] boxes a float per call.  The operations and
   their order are those of the textbook loops over [Mat.get]. *)
let decompose_gen ~psd ~jitter a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Chol.decompose: not square";
  let l = Mat.create n n in
  let aa = a.Mat.a and la = l.Mat.a in
  for i = 0 to n - 1 do
    let io = i * n in
    for j = 0 to i do
      let jo = j * n in
      let acc = ref aa.(io + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (la.(io + k) *. la.(jo + k))
      done;
      if i = j then begin
        if !acc > jitter then la.(io + i) <- sqrt !acc
        else if psd then la.(io + i) <- 0.0
        else raise Not_positive_definite
      end
      else begin
        let ljj = la.(jo + j) in
        (* Exact-zero pivot from the PSD path; bit-exact test on purpose. *)
        if (ljj = 0.0) [@sider.allow "float-equality"] then la.(io + j) <- 0.0
        else la.(io + j) <- !acc /. ljj
      end
    done
  done;
  l

let decompose a = decompose_gen ~psd:false ~jitter:0.0 a

let decompose_psd ?(jitter = 1e-12) a = decompose_gen ~psd:true ~jitter a

(* Forward substitution l y = b, then backward lᵀ x = y, into [y] and
   [x]. *)
let solve_into l b y x =
  let n, _ = Mat.dims l in
  let la = l.Mat.a in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (la.((i * n) + k) *. y.(k))
    done;
    let lii = la.((i * n) + i) in
    y.(i) <-
      (if (lii = 0.0) [@sider.allow "float-equality"] then 0.0
       else !acc /. lii)
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (la.((k * n) + i) *. x.(k))
    done;
    let lii = la.((i * n) + i) in
    x.(i) <-
      (if (lii = 0.0) [@sider.allow "float-equality"] then 0.0
       else !acc /. lii)
  done

let solve l b =
  let n, _ = Mat.dims l in
  if Array.length b <> n then invalid_arg "Chol.solve: dimension mismatch";
  let x = Array.make n 0.0 in
  solve_into l b (Array.make n 0.0) x;
  x

(* Column [j] solves against the unit vector [e_j], through one set of
   scratch vectors. *)
let inverse l =
  let n, _ = Mat.dims l in
  let inv = Mat.create n n in
  let ia = inv.Mat.a in
  let e = Array.make n 0.0 and y = Array.make n 0.0 and x = Array.make n 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    solve_into l e y x;
    e.(j) <- 0.0;
    for i = 0 to n - 1 do
      ia.((i * n) + j) <- x.(i)
    done
  done;
  inv
