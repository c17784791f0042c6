open Sider_linalg

let pairwise_distances m =
  let n, _ = Mat.dims m in
  let d = Mat.create n n in
  for i = 0 to n - 1 do
    let ri = Mat.row m i in
    for j = i + 1 to n - 1 do
      let dist = Vec.dist2 ri (Mat.row m j) in
      Mat.set d i j dist;
      Mat.set d j i dist
    done
  done;
  d

let of_distances ?(dims = 2) dist =
  let n, _ = Mat.dims dist in
  if dims < 1 || dims > n then invalid_arg "Mds.of_distances: bad dims" [@sider.allow "error-discipline"];
  (* B = -J D² J / 2 with J the centering matrix. *)
  let d2 = Mat.map (fun x -> x *. x) dist in
  let row_means = Array.init n (fun i -> Vec.mean (Mat.row d2 i)) in
  let grand = Vec.mean row_means in
  let b =
    Mat.init n n (fun i j ->
        -0.5 *. (Mat.get d2 i j -. row_means.(i) -. row_means.(j) +. grand))
  in
  let { Eigen.values; vectors } = Eigen.symmetric (Mat.symmetrize b) in
  Mat.init n dims (fun i k ->
      let lam = Float.max values.(k) 0.0 in
      Mat.get vectors i k *. sqrt lam)

let fit ?dims m = of_distances ?dims (pairwise_distances m)
