(** Rolling multi-window SLO tracking for the session service.

    Every request is {!record}ed with its status and duration; two
    bucketed rolling windows (5 minutes of 5-second buckets, 1 hour of
    1-minute buckets) accumulate totals, 5xx errors and latency-target
    misses.  A window's burn rate is

    {[ burn = bad_fraction / (1 - objective) ]}

    — the rate at which the error budget is being spent, where 1.0 is
    exactly sustainable.  Each window reports the worse of its
    availability burn (5xx fraction) and latency burn (fraction of
    responses over the 0.5 s latency target); the objective of both is
    0.99.  The SLO is {e degraded} only when both windows burn above
    1.0 (short window: the problem is happening now; long window: it is
    sustained).  Target, objective and threshold are constants: no
    caller tunes them.

    The service surfaces the state on [/slo] (full JSON snapshot), on
    [/healthz] (503 with a degraded body when {!degraded}) and as the
    [serve.slo_burn_5m] / [serve.slo_burn_1h] gauges.

    Thread-safe; the clock is {!Sider_obs.Obs.now_ns}. *)

type t

val create : unit -> t

val record : t -> status:int -> dur_s:float -> unit
(** Account one completed request. *)

type window_stats = {
  w_name : string;  (** ["5m"] or ["1h"] *)
  w_span_s : float;
  w_total : int;
  w_errors : int;  (** 5xx responses *)
  w_slow : int;  (** responses over the latency target *)
  w_error_burn : float;
  w_latency_burn : float;
  w_burn : float;  (** max of the two burns *)
}

type snapshot = {
  s_degraded : bool;
  s_windows : window_stats list;  (** short window first *)
}

val snapshot : t -> snapshot

val degraded : t -> bool

val snapshot_to_json : snapshot -> string
(** One JSON object, the [/slo] response body: the objective, the
    latency target and the burn threshold, then the snapshot. *)
