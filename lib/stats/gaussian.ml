let sqrt2pi = sqrt (2.0 *. Float.pi)

let pdf ?(mean = 0.0) ?(sd = 1.0) x =
  let z = (x -. mean) /. sd in
  exp (-0.5 *. z *. z) /. (sd *. sqrt2pi)

let log_pdf ?(mean = 0.0) ?(sd = 1.0) x =
  let z = (x -. mean) /. sd in
  (-0.5 *. z *. z) -. log (sd *. sqrt2pi)

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

let cdf ?(mean = 0.0) ?(sd = 1.0) x =
  0.5 *. (1.0 +. erf ((x -. mean) /. (sd *. sqrt 2.0)))

(* Acklam's inverse normal CDF approximation. *)
let quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Gaussian.quantile: p not in (0,1)" [@sider.allow "error-discipline"];
  let a = [| -3.969683028665376e+01; 2.209460984245205e+02;
             -2.759285104469687e+02; 1.383577518672690e+02;
             -3.066479806614716e+01; 2.506628277459239e+00 |] in
  let b = [| -5.447609879822406e+01; 1.615858368580409e+02;
             -1.556989798598866e+02; 6.680131188771972e+01;
             -1.328068155288572e+01 |] in
  let c = [| -7.784894002430293e-03; -3.223964580411365e-01;
             -2.400758277161838e+00; -2.549732539343734e+00;
             4.374664141464968e+00; 2.938163982698783e+00 |] in
  let d = [| 7.784695709041462e-03; 3.224671290700398e-01;
             2.445134137142996e+00; 3.754408661907416e+00 |] in
  let p_low = 0.02425 in
  let tail q sign =
    let t = sqrt (-2.0 *. log q) in
    sign
    *. (((((((c.(0) *. t) +. c.(1)) *. t) +. c.(2)) *. t +. c.(3)) *. t
         +. c.(4))
        *. t
        +. c.(5))
    /. ((((((d.(0) *. t) +. d.(1)) *. t) +. d.(2)) *. t +. d.(3)) *. t +. 1.0)
  in
  if p < p_low then tail p 1.0
  else if p > 1.0 -. p_low then tail (1.0 -. p) (-1.0)
  else begin
    let q = p -. 0.5 in
    let r = q *. q in
    q
    *. (((((((a.(0) *. r) +. a.(1)) *. r) +. a.(2)) *. r +. a.(3)) *. r
         +. a.(4))
        *. r
        +. a.(5))
    /. (((((((b.(0) *. r) +. b.(1)) *. r) +. b.(2)) *. r +. b.(3)) *. r
         +. b.(4))
        *. r
        +. 1.0)
  end

(* E[log cosh X], X ~ N(0, 1): the value, to the last bit, of a
   200,000-point trapezoid over [-12, 12].  The quadrature itself lives
   in test/test_stats.ml, which pins this literal to it. *)
let log_cosh_moment = 0x1.7f8e8bc951928p-2

let chi2_quantile_2d p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Gaussian.chi2_quantile_2d: p not in (0,1)" [@sider.allow "error-discipline"];
  -2.0 *. log (1.0 -. p)
