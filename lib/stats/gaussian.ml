let erf x =
  (* Abramowitz & Stegun 7.1.26. *)
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
        +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  sign *. y

let cdf x = 0.5 *. (1.0 +. erf (x /. sqrt 2.0))

(* E[log cosh X], X ~ N(0, 1): the value, to the last bit, of a
   200,000-point trapezoid over [-12, 12].  The quadrature itself lives
   in test/test_stats.ml, which pins this literal to it. *)
let log_cosh_moment = 0x1.7f8e8bc951928p-2

let chi2_quantile_2d p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Gaussian.chi2_quantile_2d: p not in (0,1)" [@sider.allow "error-discipline"];
  -2.0 *. log (1.0 -. p)
