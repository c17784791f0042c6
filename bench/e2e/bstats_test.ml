(* Known answers for the statistics helpers of sider_bench: quartiles as
   Python's statistics.quantiles gives them, the ten-samples-beyond rule,
   pairwise wins and the compare verdicts.  Run by `dune runtest`. *)

open Bstats

let failures = ref 0

let expect name ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n" name)

let close a b = Float.abs (a -. b) < 1e-12

let pairs p c = Array.to_list (Array.map2 (fun a b -> (a, b)) p c)

let () =
  let q1, q2, q3 = quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  expect "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = quartiles [| 4.; 1.; 3.; 2. |] in
  expect "quartiles unsorted" (close q1 1.25 && close q2 2.5 && close q3 3.75);
  expect "iqr" (close (iqr [| 4.; 1.; 3.; 2. |]) 2.5);
  expect "tail 19" (tail_pm 19 = None);
  expect "tail 20" (tail_pm 20 = Some 500);
  expect "tail 100" (tail_pm 100 = Some 900);
  expect "tail 999" (tail_pm 999 = Some 900);
  expect "tail 1000" (tail_pm 1000 = Some 990);
  expect "tail 10000" (tail_pm 10000 = Some 999);
  expect "beyond" (beyond 1000 990 = 10 && beyond 100 900 = 10);
  expect "label" (pm_label 990 = "p99" && pm_label 999 = "p99.9");
  expect "wins" (wins Lower [ (3., 2.); (2., 2.); (1., 2.) ] = 1);
  expect "wins higher" (wins Higher [ (3., 2.); (2., 2.); (1., 2.) ] = 1);
  let p = Array.init 10 (fun i -> 1.0 +. (0.001 *. float_of_int i)) in
  let verdict_of ?(dir = Lower) ?(bound = Some 0.1) p c =
    verdict ~dir ~bound ~parent:p ~change:c (pairs p c)
  in
  expect "gain" (verdict_of p (Array.map (fun x -> x *. 0.9) p) = Gain);
  expect "regression" (verdict_of p (Array.map (fun x -> x *. 1.2) p) = Regression);
  expect "no change" (verdict_of p p = No_change);
  let wide = Array.init 10 (fun i -> 1.0 +. (0.1 *. float_of_int i)) in
  expect "unresolved" (verdict_of wide wide = Unresolved);
  expect "higher gain" (verdict_of ~dir:Higher (Array.make 10 1.0) (Array.make 10 2.0) = Gain);
  (* Without a bound, a regression mirrors the gain rule. *)
  expect "unbounded regression"
    (verdict_of ~bound:None p (Array.map (fun x -> x *. 1.05) p) = Regression);
  expect "unbounded small loss"
    (verdict_of ~bound:None p (Array.map (fun x -> x *. 1.0001) p) = No_change);
  expect "unbounded unresolved" (verdict_of ~bound:None wide wide = Unresolved);
  if !failures > 0 then exit 1
