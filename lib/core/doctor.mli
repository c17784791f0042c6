(** Dataset health checks — the engine's pre-flight diagnostics.

    [check_dataset] runs a battery of static checks (shape, non-finite
    cells, duplicate/constant columns, covariance conditioning) and, when
    no fault was found, a deep end-to-end probe: a throwaway session with
    a margin constraint is created, solved and projected, exercising the
    exact code path an interactive session would.  Every numerical
    recovery the probe survives is reported as a warning; an unrecoverable
    failure is a fault.

    Nothing here raises: pathological inputs become [Fault] findings. *)

open Sider_data

type severity = Info | Warning | Fault

type finding = {
  check : string;     (** Short machine-ish name, e.g. ["non-finite"]. *)
  severity : severity;
  message : string;
}

type report = {
  findings : finding list;  (** In check order. *)
  healthy : bool;           (** No [Fault]-severity finding. *)
}

val check_dataset : ?deep:bool -> ?seed:int -> Dataset.t -> report
(** Run all checks.  [deep] (default [true]) enables the end-to-end solver
    probe; it is skipped automatically when a static fault was already
    found (the probe would only crash on the same defect).  [seed]
    (default 2018) seeds the probe session.  The report ends with a
    telemetry section: a sink install → span → uninstall round-trip
    (skipped, with an [Info] note, when a live sink is installed) and the
    flight recorder's capacity / written / dropped statistics. *)

val check_store : string -> report
(** Judge a persistence artifact — a session snapshot or a write-ahead
    journal — by recovery's own verdict: {!Persist.inspect} reads it
    once with the scan recovery runs, and this renders what that scan
    saw (kind, length, format version, events restored, sibling
    snapshot).  Healthy exactly when recovery restores the file; its
    error otherwise is the one [Fault].  Bytes recovery drops after the
    last intact record (a torn append) are a [Warning].  Never raises. *)

val fault : check:string -> string -> report
(** A report consisting of one fault — for callers whose input failed
    before a dataset even existed (e.g. a CSV that does not parse). *)

val to_string : report -> string
(** Human-readable rendering, one finding per line, verdict last. *)
