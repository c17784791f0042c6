open Sider_linalg

type summary = {
  n : int;
  mean : float;
  sd : float;
  min : float;
  max : float;
  median : float;
  q25 : float;
  q75 : float;
}

let quantile v p =
  if Array.length v = 0 then invalid_arg "Descriptive.quantile: empty" [@sider.allow "error-discipline"];
  if p < 0.0 || p > 1.0 then invalid_arg "Descriptive.quantile: p not in [0,1]" [@sider.allow "error-discipline"];
  let sorted = Array.copy v in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median v = quantile v 0.5

let summarize v =
  if Array.length v = 0 then invalid_arg "Descriptive.summarize: empty" [@sider.allow "error-discipline"];
  let mean = Vec.mean v in
  {
    n = Array.length v;
    mean;
    sd = sqrt (Vec.variance ~mean v);
    min = Vec.min v;
    max = Vec.max v;
    median = median v;
    q25 = quantile v 0.25;
    q75 = quantile v 0.75;
  }

let central_moment v k =
  let mu = Vec.mean v in
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. ((x -. mu) ** float_of_int k)) v;
  !acc /. float_of_int (Array.length v)

let skewness v =
  let m2 = central_moment v 2 in
  if Float.equal m2 0.0 then 0.0 else central_moment v 3 /. (m2 ** 1.5)

let kurtosis v =
  let m2 = central_moment v 2 in
  if Float.equal m2 0.0 then 0.0
  else (central_moment v 4 /. (m2 *. m2)) -. 3.0

let correlation x y =
  if Array.length x <> Array.length y then
    invalid_arg "Descriptive.correlation: length mismatch" [@sider.allow "error-discipline"];
  let mx = Vec.mean x and my = Vec.mean y in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i xi ->
      let dx = xi -. mx and dy = y.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    x;
  if Float.equal !sxx 0.0 || Float.equal !syy 0.0 then 0.0
  else !sxy /. sqrt (!sxx *. !syy)

(* A loop, not [Array.map], whose closure boxes every entry. *)
let standardize v =
  let mean = Vec.mean v in
  let sd = sqrt (Vec.variance ~mean v) in
  let n = Array.length v in
  let out = Array.create_float n in
  if Float.equal sd 0.0 then
    for i = 0 to n - 1 do
      Array.unsafe_set out i (Array.unsafe_get v i -. mean)
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set out i ((Array.unsafe_get v i -. mean) /. sd)
    done;
  out
