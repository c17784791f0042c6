open Sider_linalg
open Sider_stats

let pca_gain sigma2 =
  if sigma2 <= 0.0 then infinity
  else 0.5 *. (sigma2 -. log sigma2 -. 1.0)

(* Inlined, and summed in a loop, so no entry is boxed. *)
let[@inline] log_cosh_stable x =
  let ax = Float.abs x in
  ax +. log1p (exp (-2.0 *. ax)) -. log 2.0

(* [v] standardized in place, then the mean of its log cosh less the
   Gaussian's. *)
let log_cosh_score v =
  Descriptive.standardize_into ~dst:v v;
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. log_cosh_stable (Array.unsafe_get v i)
  done;
  (!acc /. float_of_int (Array.length v)) -. Gaussian.log_cosh_moment

(* [Mat.mv_into] sums each row's products in [Vec.dot]'s order without
   copying the row. *)
let direction_log_cosh ?scratch m w =
  let n, _ = Mat.dims m in
  let s = match scratch with Some s -> s | None -> Array.create_float n in
  if Array.length s <> n then
    invalid_arg "Scores.direction_log_cosh: scratch length" [@sider.allow "error-discipline"];
  Mat.mv_into ~dst:s m w;
  log_cosh_score s
