(* Rolling multi-window SLO tracking over the service's request stream.

   Two ring-bucketed windows (5 minutes of 5-second buckets, 1 hour of
   1-minute buckets) accumulate per-request totals, 5xx errors and
   latency-target misses.  The burn rate of a window is the fraction of
   its error budget consumed per unit of sustainable spend:

       burn = bad_fraction / (1 - objective)

   so burn = 1 means the service is spending budget exactly as fast as
   the objective allows, burn = 10 means ten times too fast.  The
   service reports a window's burn as the worse of its availability
   burn (5xx) and its latency burn (responses over the target), and
   calls the SLO "degraded" only when *both* windows burn above the
   threshold — the classic multi-window rule: the short window proves
   the problem is current, the long window proves it is sustained, and
   a single slow request after a quiet hour trips neither.

   Timestamps come from [Obs.now_ns] (non-decreasing); buckets between
   the last write and now are zeroed lazily on access, so an idle
   stretch costs nothing and a snapshot after one is correctly empty. *)

module Obs = Sider_obs.Obs

type bucket = { mutable total : int; mutable errors : int; mutable slow : int }

type window = {
  bucket_s : float;
  buckets : bucket array;
  mutable last_abs : int;  (* absolute index of the bucket last written *)
}

let make_window ~bucket_s ~buckets =
  {
    bucket_s;
    buckets = Array.init buckets (fun _ -> { total = 0; errors = 0; slow = 0 });
    last_abs = -1;
  }

(* Zero every bucket the clock has passed since the last touch, then
   return the current bucket.  Must hold the owning [t]'s mutex. *)
let advance w ~now_s =
  let abs = int_of_float (now_s /. w.bucket_s) in
  let n = Array.length w.buckets in
  if w.last_abs < 0 then
    Array.iter (fun b -> b.total <- 0; b.errors <- 0; b.slow <- 0) w.buckets
  else if abs > w.last_abs then begin
    let steps = min n (abs - w.last_abs) in
    for i = 1 to steps do
      let b = w.buckets.((w.last_abs + i) mod n) in
      b.total <- 0;
      b.errors <- 0;
      b.slow <- 0
    done
  end;
  if abs > w.last_abs then w.last_abs <- abs;
  w.buckets.(abs mod n)

type window_stats = {
  w_name : string;
  w_span_s : float;
  w_total : int;
  w_errors : int;
  w_slow : int;
  w_error_burn : float;
  w_latency_burn : float;
  w_burn : float;  (* max of the two *)
}

type t = { m : Mutex.t; w5m : window; w1h : window }

(* Responses slower than this burn the latency budget. *)
let latency_target_s = 0.5

(* The objective of both SLOs, availability and latency. *)
let objective = 0.99

(* A window is burning when its budget burns faster than 1.0×. *)
let burn_threshold = 1.0

let create () =
  {
    m = Mutex.create ();
    w5m = make_window ~bucket_s:5.0 ~buckets:60;
    w1h = make_window ~bucket_s:60.0 ~buckets:60;
  }

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

let record t ~status ~dur_s =
  let now_s = now_s () in
  let is_err = status >= 500 in
  let is_slow = dur_s > latency_target_s in
  Mutex.lock t.m [@sider.lock "slo_m"];
  List.iter
    (fun w ->
      let b = advance w ~now_s in
      b.total <- b.total + 1;
      if is_err then b.errors <- b.errors + 1;
      if is_slow then b.slow <- b.slow + 1)
    [ t.w5m; t.w1h ];
  Mutex.unlock t.m

let window_stats name w ~now_s =
  (* Advance first so stale buckets do not count. *)
  ignore (advance w ~now_s);
  let total = ref 0 and errors = ref 0 and slow = ref 0 in
  Array.iter
    (fun b ->
      total := !total + b.total;
      errors := !errors + b.errors;
      slow := !slow + b.slow)
    w.buckets;
  let allowance = 1.0 -. objective in
  let frac bad =
    if !total = 0 then 0.0 else float_of_int bad /. float_of_int !total
  in
  let error_burn = frac !errors /. allowance in
  let latency_burn = frac !slow /. allowance in
  {
    w_name = name;
    w_span_s = w.bucket_s *. float_of_int (Array.length w.buckets);
    w_total = !total;
    w_errors = !errors;
    w_slow = !slow;
    w_error_burn = error_burn;
    w_latency_burn = latency_burn;
    w_burn = Float.max error_burn latency_burn;
  }

type snapshot = {
  s_degraded : bool;
  s_windows : window_stats list;  (* short window first *)
}

let snapshot t =
  let now_s = now_s () in
  Mutex.lock t.m [@sider.lock "slo_m"];
  let w5 = window_stats "5m" t.w5m ~now_s in
  let w1 = window_stats "1h" t.w1h ~now_s in
  Mutex.unlock t.m;
  {
    s_degraded =
      w5.w_burn > burn_threshold && w1.w_burn > burn_threshold;
    s_windows = [ w5; w1 ];
  }

let degraded t = (snapshot t).s_degraded

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let window_to_json w =
  Printf.sprintf
    "{\"window\":\"%s\",\"span_s\":%s,\"requests\":%d,\"errors\":%d,\
     \"slow\":%d,\"error_burn\":%s,\"latency_burn\":%s,\"burn\":%s}"
    w.w_name (json_float w.w_span_s) w.w_total w.w_errors w.w_slow
    (json_float w.w_error_burn) (json_float w.w_latency_burn)
    (json_float w.w_burn)

let snapshot_to_json s =
  Printf.sprintf
    "{\"objective\":%s,\"latency_target_s\":%s,\"burn_threshold\":%s,\
     \"degraded\":%b,\"windows\":[%s]}"
    (json_float objective)
    (json_float latency_target_s)
    (json_float burn_threshold)
    s.s_degraded
    (String.concat "," (List.map window_to_json s.s_windows))
