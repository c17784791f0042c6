open Sider_linalg

let k_nearest m i k =
  let n, _ = Mat.dims m in
  let ri = Mat.row m i in
  let dists =
    Array.init n (fun j ->
        (j, if j = i then infinity else Vec.dist2 ri (Mat.row m j)))
  in
  Array.sort (fun (_, a) (_, b) -> compare a b) dists;
  Array.init k (fun t -> fst dists.(t))

(* Local ridge, relative to the local Gram trace. *)
let ridge = 1e-3

let reconstruction_weights ~neighbours m =
  let n, _ = Mat.dims m in
  if neighbours >= n then invalid_arg "Lle: neighbours >= n" [@sider.allow "error-discipline"];
  Array.init n (fun i ->
      let nbrs = k_nearest m i neighbours in
      (* Local Gram matrix of the centered neighbours. *)
      let ri = Mat.row m i in
      let z =
        Array.map (fun j -> Vec.sub (Mat.row m j) ri) nbrs
      in
      let gram =
        Mat.init neighbours neighbours (fun a b -> Vec.dot z.(a) z.(b))
      in
      (* Ridge relative to the trace keeps the solve well-posed when the
         neighbourhood is low-dimensional. *)
      let reg = ridge *. Float.max (Mat.trace gram) 1e-12 in
      for a = 0 to neighbours - 1 do
        Mat.set gram a a (Mat.get gram a a +. reg)
      done;
      let ones = Array.make neighbours 1.0 in
      let w = Chol.solve (Chol.decompose_psd gram) ones in
      let total = Vec.sum w in
      let w =
        if Float.abs total < 1e-12 then
          Array.make neighbours (1.0 /. float_of_int neighbours)
        else Vec.scale (1.0 /. total) w
      in
      (nbrs, w))

let fit ?(dims = 2) ?(neighbours = 10) m =
  let n, _ = Mat.dims m in
  if dims >= neighbours + 1 then invalid_arg "Lle: dims >= neighbours + 1" [@sider.allow "error-discipline"];
  let weights = reconstruction_weights ~neighbours m in
  (* M = (I − W)ᵀ(I − W), assembled densely. *)
  let w_full = Mat.create n n in
  Array.iteri
    (fun i (nbrs, w) ->
      Array.iteri (fun t j -> Mat.set w_full i j w.(t)) nbrs)
    weights;
  let iw = Mat.sub (Mat.identity n) w_full in
  let big_m = Mat.matmul (Mat.transpose iw) iw in
  let { Eigen.values = _; vectors } = Eigen.symmetric (Mat.symmetrize big_m) in
  (* Bottom eigenvectors, skipping the constant one (smallest eigenvalue);
     eigenvalues come sorted decreasing, so take columns n-2 .. n-1-dims. *)
  Mat.init n dims (fun i k -> Mat.get vectors i (n - 2 - k))
