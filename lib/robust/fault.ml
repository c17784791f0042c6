open Sider_linalg

type injection =
  | Nan_in_class of { sweep : int; cls : int }
  | Fail_sweep of { sweep : int }
  | Journal_fail_append of { path_substr : string }
  | Svc_drop_request of { path_substr : string }
  | Svc_delay_request of { path_substr : string; ms : int }
  | Svc_truncate_request of { path_substr : string }
  | Svc_crash_after_journal of { path_substr : string }
  | Compact_crash of { path_substr : string; point : int }
  | Checksum_crash of { path_substr : string }

type fired = { injection : injection; at_sweep : int }

exception Crash_injected

(* Each armed entry carries its remaining shot count: positive counts
   decrement to zero and disappear (arm = count 1), [persistent_shots]
   never decrements — the multi-shot arm soak tests rely on. *)
let persistent_shots = -1

let armed_ : (injection * int ref) list ref = ref []

let fired_ : fired list ref = ref []

let reset () =
  armed_ := [];
  fired_ := []

let arm_counted n i =
  if n <= 0 && n <> persistent_shots then
    invalid_arg "Fault.arm_counted: count must be positive";
  armed_ := !armed_ @ [ (i, ref n) ]

let arm i = arm_counted 1 i

let arm_persistent i = arm_counted persistent_shots i

let armed () = List.map fst !armed_

let fired () = List.rev !fired_

let consume pred =
  let rec go acc = function
    | [] -> None
    | ((x, shots) as entry) :: rest ->
      if pred x then begin
        (if !shots = persistent_shots then ()
         else begin
           decr shots;
           if !shots <= 0 then armed_ := List.rev_append acc rest
         end);
        Some x
      end
      else go (entry :: acc) rest
  in
  go [] !armed_

let nan_class_for_sweep ~sweep =
  match
    consume (function Nan_in_class n -> n.sweep = sweep | _ -> false)
  with
  | Some (Nan_in_class n as i) ->
    fired_ := { injection = i; at_sweep = sweep } :: !fired_;
    Some n.cls
  | _ -> None

let should_fail_sweep ~sweep =
  match consume (function Fail_sweep f -> f.sweep = sweep | _ -> false) with
  | Some i ->
    fired_ := { injection = i; at_sweep = sweep } :: !fired_;
    true
  | _ -> false

(* --- service-level injection points --------------------------------------- *)

(* Substring matching keeps arming ergonomic: [path_substr = ""] matches
   every request/journal, a session id narrows the blast radius to one
   tenant.  All service polls are one-shot, like the solver ones. *)
let substr_matches ~needle haystack =
  needle = ""
  ||
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let consume_for_path ~path pred =
  match
    consume (fun i ->
        match pred i with
        | Some needle -> substr_matches ~needle path
        | None -> false)
  with
  | Some i ->
    fired_ := { injection = i; at_sweep = 0 } :: !fired_;
    Some i
  | None -> None

let journal_append_should_fail ~path =
  consume_for_path ~path (function
    | Journal_fail_append j -> Some j.path_substr
    | _ -> None)
  <> None

let request_fault ~path =
  match
    consume_for_path ~path (function
      | Svc_drop_request r -> Some r.path_substr
      | Svc_delay_request r -> Some r.path_substr
      | Svc_truncate_request r -> Some r.path_substr
      | _ -> None)
  with
  | Some (Svc_drop_request _) -> Some `Drop
  | Some (Svc_delay_request r) -> Some (`Delay r.ms)
  | Some (Svc_truncate_request _) -> Some `Truncate
  | _ -> None

let should_crash_after_journal ~path =
  consume_for_path ~path (function
    | Svc_crash_after_journal c -> Some c.path_substr
    | _ -> None)
  <> None

let crash_compaction_at ~path ~point =
  consume_for_path ~path (function
    | Compact_crash c when c.point = point -> Some c.path_substr
    | _ -> None)
  |> Option.iter (fun _ -> raise Crash_injected)

let crash_before_checksum ~path =
  consume_for_path ~path (function
    | Checksum_crash c -> Some c.path_substr
    | _ -> None)
  |> Option.iter (fun _ -> raise Crash_injected)

(* A fixed full rotation built from Givens rotations with index-derived
   angles: dense enough to hide the eigenbasis, fully deterministic. *)
let fixed_rotation d =
  let q = Mat.identity d in
  let qa = q.Mat.a in
  for p = 0 to d - 2 do
    for r = p + 1 to d - 1 do
      let angle = 0.7 +. (0.37 *. float_of_int ((p * d) + r)) in
      let c = cos angle and s = sin angle in
      for i = 0 to d - 1 do
        let qip = qa.((i * d) + p) and qir = qa.((i * d) + r) in
        qa.((i * d) + p) <- (c *. qip) -. (s *. qir);
        qa.((i * d) + r) <- (s *. qip) +. (c *. qir)
      done
    done
  done;
  q

let ill_conditioned_cov ~d ~log10_kappa =
  if d < 1 then invalid_arg "Fault.ill_conditioned_cov: d must be positive";
  let q = fixed_rotation d in
  let out = Mat.create d d in
  for k = 0 to d - 1 do
    let t = if d = 1 then 0.0 else float_of_int k /. float_of_int (d - 1) in
    let lam = 10.0 ** (-.log10_kappa *. t) in
    Mat.rank1_update out lam (Mat.col q k)
  done;
  Mat.symmetrize out

let with_nans m positions =
  let out = Mat.copy m in
  List.iter (fun (i, j) -> Mat.set out i j Float.nan) positions;
  out

let adversarial_rowsets ~n =
  if n < 2 then invalid_arg "Fault.adversarial_rowsets: need n >= 2";
  let all = Array.init n Fun.id in
  let half = Array.init ((n / 2) + 1) Fun.id in
  let overlap = Array.init ((n / 2) + 1) (fun i -> n - 1 - i) in
  let comb = Array.init ((n + 1) / 2) (fun i -> 2 * i) in
  [ all; half; Array.copy half; overlap; [| 0 |]; comb ]
