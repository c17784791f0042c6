(* Order statistics shared by the timed run and [--compare]: the
   sample-size rule for tail percentiles, quartiles, pairwise wins and
   the compare verdict. *)

let median a = Sider_obs.Obs.quantile_type7 a 0.5

let quantile a p = Sider_obs.Obs.quantile_type7 a p

(* Percentiles are handled in per mille so "ten samples beyond" is exact
   integer arithmetic (100 × (1 − 0.9) is 9.999… in floating point). *)
let beyond n pm = n * (1000 - pm) / 1000

(* The highest of p50 / p90 / p99 / p99.9 with at least ten samples
   beyond it, or [None] below twenty samples. *)
let tail_pm n =
  List.fold_left
    (fun acc pm -> if n * (1000 - pm) >= 10_000 then Some pm else acc)
    None [ 500; 900; 990; 999 ]

let pm_label pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* First, second and third quartile exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method)
   computes them, so the spreads printed here are the ones an outside
   check of the same numbers would see. *)
let quartiles values =
  let data = Array.copy values in
  Array.sort Float.compare data;
  let ld = Array.length data in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta))
       +. (data.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let iqr values =
  let q1, _, q3 = quartiles values in
  q3 -. q1

type direction = Lower | Higher

let direction_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("unknown direction " ^ s)

let direction_name = function Lower -> "lower" | Higher -> "higher"

let better dir a b = match dir with Lower -> a < b | Higher -> a > b

(* Pairs (parent, change) the change wins; ties count for neither side. *)
let wins dir pairs =
  List.length (List.filter (fun (p, c) -> better dir c p) pairs)

let losses dir pairs =
  List.length (List.filter (fun (p, c) -> better dir p c) pairs)

type verdict = Gain | No_change | Regression | Unresolved

let verdict_name = function
  | Gain -> "gain"
  | No_change -> "no change"
  | Regression -> "regression"
  | Unresolved -> "unresolved"

(* [bound] is the share of the parent's median by which a gated metric
   may worsen.  A gain needs ≥ 9/10 pairwise wins and a median gap wider
   than the parent's own quartile spread.  A regression is a median worse
   by more than the bound; a metric without one (measured, not gated)
   regresses by the mirror of the gain rule.  A spread wider than the
   bound (10% without one) on either side leaves the pair unresolved,
   unless every change run beats every parent run. *)
let unbounded_spread = 0.10

let verdict ~dir ~bound ~parent ~change pairs =
  let pm = median parent and cm = median change in
  let gap = match dir with Lower -> pm -. cm | Higher -> cm -. pm in
  let n = List.length pairs in
  let spread v = iqr v /. Float.abs pm in
  let limit = Option.value bound ~default:unbounded_spread in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better dir c p) parent) change
  in
  let worse =
    match bound with
    | Some b -> -.gap > b *. Float.abs pm
    | None -> n > 0 && 10 * losses dir pairs >= 9 * n && -.gap > iqr parent
  in
  if n > 0 && 10 * wins dir pairs >= 9 * n && gap > iqr parent then Gain
  else if worse then Regression
  else if (spread parent > limit || spread change > limit) && not all_better then Unresolved
  else No_change
