open Sider_linalg

type t = {
  center : float * float;
  axis1 : float * float;
  axis2 : float * float;
  radius1 : float;
  radius2 : float;
}

let of_moments ~mean ~cov =
  if Array.length mean <> 2 then invalid_arg "Ellipse.of_moments: need 2-D" [@sider.allow "error-discipline"];
  let { Eigen.values; vectors } = Eigen.symmetric cov in
  let r2 = Gaussian.chi2_quantile_2d 0.95 in
  let radius k = sqrt (Float.max values.(k) 0.0 *. r2) in
  {
    center = (mean.(0), mean.(1));
    axis1 = (Mat.get vectors 0 0, Mat.get vectors 1 0);
    axis2 = (Mat.get vectors 0 1, Mat.get vectors 1 1);
    radius1 = radius 0;
    radius2 = radius 1;
  }

let of_points pts =
  if Array.length pts = 0 then invalid_arg "Ellipse.of_points: empty" [@sider.allow "error-discipline"];
  let m = Mat.init (Array.length pts) 2 (fun i j ->
      let x, y = pts.(i) in
      if j = 0 then x else y)
  in
  of_moments ~mean:(Mat.col_means m) ~cov:(Mat.covariance m)

let segments = 64

let polyline t =
  let cx, cy = t.center in
  let a1x, a1y = t.axis1 and a2x, a2y = t.axis2 in
  Array.init (segments + 1) (fun i ->
      let th = 2.0 *. Float.pi *. float_of_int i /. float_of_int segments in
      let u = t.radius1 *. cos th and v = t.radius2 *. sin th in
      (cx +. (u *. a1x) +. (v *. a2x), cy +. (u *. a1y) +. (v *. a2y)))
