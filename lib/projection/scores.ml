open Sider_linalg
open Sider_stats

let pca_gain sigma2 =
  if sigma2 <= 0.0 then infinity
  else 0.5 *. (sigma2 -. log sigma2 -. 1.0)

(* Inlined, and summed in a loop, so no entry is boxed. *)
let[@inline] log_cosh_stable x =
  let ax = Float.abs x in
  ax +. log1p (exp (-2.0 *. ax)) -. log 2.0

let log_cosh_score v =
  let s = Descriptive.standardize v in
  let acc = ref 0.0 in
  for i = 0 to Array.length s - 1 do
    acc := !acc +. log_cosh_stable (Array.unsafe_get s i)
  done;
  (!acc /. float_of_int (Array.length s)) -. Gaussian.log_cosh_moment

(* [Mat.mv] sums each row's products in [Vec.dot]'s order without
   copying the row. *)
let direction_log_cosh m w = log_cosh_score (Mat.mv m w)
