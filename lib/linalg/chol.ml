(* Linter escape, audited file-wide: raises are the documented
   [Not_positive_definite] signal plus [Invalid_argument] precondition
   failures with test-locked messages; lib/robust depends on linalg, so
   [Sider_error] would be a cycle.  Float [=] sites below are exact-zero
   pivot tests annotated individually. *)
[@@@sider.allow "error-discipline"]

exception Not_positive_definite

let decompose_gen ~psd ~jitter a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Chol.decompose: not square";
  let l = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !acc > jitter then Mat.set l i i (sqrt !acc)
        else if psd then Mat.set l i i 0.0
        else raise Not_positive_definite
      end
      else begin
        let ljj = Mat.get l j j in
        (* Exact-zero pivot from the PSD path; bit-exact test on purpose. *)
        if (ljj = 0.0) [@sider.allow "float-equality"] then Mat.set l i j 0.0
        else Mat.set l i j (!acc /. ljj)
      end
    done
  done;
  l

let decompose a = decompose_gen ~psd:false ~jitter:0.0 a

let decompose_psd ?(jitter = 1e-12) a = decompose_gen ~psd:true ~jitter a

let solve l b =
  let n, _ = Mat.dims l in
  if Array.length b <> n then invalid_arg "Chol.solve: dimension mismatch";
  (* Forward substitution: l y = b. *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (Mat.get l i k *. y.(k))
    done;
    let lii = Mat.get l i i in
    y.(i) <-
      (if (lii = 0.0) [@sider.allow "float-equality"] then 0.0
       else !acc /. lii)
  done;
  (* Backward substitution: lᵀ x = y. *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l k i *. x.(k))
    done;
    let lii = Mat.get l i i in
    x.(i) <-
      (if (lii = 0.0) [@sider.allow "float-equality"] then 0.0
       else !acc /. lii)
  done;
  x

let inverse l =
  let n, _ = Mat.dims l in
  let inv = Mat.create n n in
  for j = 0 to n - 1 do
    let x = solve l (Vec.basis n j) in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv
