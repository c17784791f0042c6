let statistic ~cdf xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ks.statistic: empty sample" [@sider.allow "error-discipline"];
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let fn = float_of_int n in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      (* Both one-sided gaps around the step at x. *)
      let upper = (float_of_int (i + 1) /. fn) -. f in
      let lower = f -. (float_of_int i /. fn) in
      worst := Float.max !worst (Float.max upper lower))
    sorted;
  !worst

let statistic_gaussian xs = statistic ~cdf:Gaussian.cdf xs

let p_value ~n d =
  if n <= 0 then invalid_arg "Ks.p_value: n must be positive" [@sider.allow "error-discipline"];
  if d <= 0.0 then 1.0
  else begin
    let sn = sqrt (float_of_int n) in
    (* Stephens' correction makes the asymptotic series accurate down to
       n ≈ 5. *)
    let lambda = (sn +. 0.12 +. (0.11 /. sn)) *. d in
    let acc = ref 0.0 in
    for k = 1 to 100 do
      let fk = float_of_int k in
      let term =
        (if k mod 2 = 1 then 1.0 else -1.0)
        *. exp (-2.0 *. fk *. fk *. lambda *. lambda)
      in
      acc := !acc +. term
    done;
    Float.min 1.0 (Float.max 0.0 (2.0 *. !acc))
  end

let test_gaussian xs =
  let d = statistic_gaussian xs in
  (d, p_value ~n:(Array.length xs) d)
