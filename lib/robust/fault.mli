(** Deterministic fault injection for testing the robustness layer.

    The harness has two halves:

    - a global registry of armed {e injections}.  Instrumented code (the
      MaxEnt solver) polls the registry at well-defined sites and applies
      the corruption itself, so this module stays free of upward
      dependencies.  {!arm}ed injections are one-shot: firing consumes
      them and records a {!fired} entry.  Soak-style tests that need the
      same fault repeatedly use {!arm_counted} (fires exactly [n] times)
      or {!arm_persistent} (fires until {!reset}) instead of re-arming
      between iterations.
    - deterministic builders of pathological inputs — ill-conditioned
      covariances, NaN-poisoned matrices, adversarial row sets — with no
      hidden randomness, so test failures replay exactly.

    All state is global and mutable; call {!reset} at the start of every
    test. *)

open Sider_linalg

type injection =
  | Nan_in_class of { sweep : int; cls : int }
      (** At the start of sweep [sweep], poison class [cls]'s mean with a
          NaN.  This exercises the solver's pre-sweep scan, which resets
          the poisoned class to the prior and records a degradation, so
          the sweep runs on finite state.  It does not reach the
          post-sweep rollback and retry on its own: those run only when
          a sweep ends with a non-finite class.  The scan resets one
          class a sweep, so the [maxent] test "trace skips a rolled-back
          sweep" reaches the rollback by also poisoning a second class
          from its trace callback. *)
  | Fail_sweep of { sweep : int }
      (** At the start of sweep [sweep], raise a structured
          solver-divergence error (exercises the session's
          checkpoint-rollback path). *)
  | Journal_fail_append of { path_substr : string }
      (** The next journal append whose file path contains [path_substr]
          (["" ] matches any) fails with a structured {!Sider_error.t}
          before writing a byte — the disk-full / pulled-volume case.
          The mutation must not be acknowledged. *)
  | Svc_drop_request of { path_substr : string }
      (** The session service closes the matching connection without
          writing a response (network partition mid-request). *)
  | Svc_delay_request of { path_substr : string; ms : int }
      (** The service stalls the matching request for [ms] milliseconds
          before handling it (slow disk / scheduling hiccup; used to hold
          workers busy in overload tests). *)
  | Svc_truncate_request of { path_substr : string }
      (** The service discards the second half of the matching request's
          body before parsing it (truncated upload — must surface as a
          400, never a crash). *)
  | Svc_crash_after_journal of { path_substr : string }
      (** On the matching mutation, raise {!Crash_injected} after the
          journal append (and in-memory apply) but before the response is
          written — the [kill -9] between journal and ack.  The client
          never sees an acknowledgement; restart-from-journal must
          restore the event. *)
  | Compact_crash of { path_substr : string; point : int }
      (** Raise {!Crash_injected} at fault point [point] of
          {!Sider_core.Persist.journal_compact} on the matching journal
          path: 0 = before anything is written, 1 = snapshot tmp written
          but not renamed, 2 = snapshot renamed but journal not yet
          rewritten, 3 = journal tmp written but not renamed.  Recovery
          from the on-disk state must reproduce the session at every
          point. *)

type fired = { injection : injection; at_sweep : int }
(** [at_sweep] is 0 for service-level injections. *)

exception Crash_injected
(** Raised by the {!Svc_crash_after_journal} polling site.  The service
    treats it as sudden process death for that connection: no response
    is written and the connection is closed.  Tests that arm it must
    discard the service instance and recover a fresh one from the data
    directory. *)

val reset : unit -> unit [@@sider.allow "test-hook"]
(** Disarm everything and clear the fired log. *)

val arm : injection -> unit [@@sider.allow "test-hook"]
(** Arm for exactly one firing. *)

val arm_counted : int -> injection -> unit [@@sider.allow "test-hook"]
(** [arm_counted n i] arms [i] to fire [n] times before disarming
    itself; each firing is recorded separately in {!fired}.  Raises
    [Invalid_argument] when [n <= 0]. *)

val arm_persistent : injection -> unit [@@sider.allow "test-hook"]
(** Arm [i] to fire every time its polling site matches, until
    {!reset}. *)

val armed : unit -> injection list [@@sider.allow "test-hook"]
(** Currently armed injections, one entry per {!arm}/{!arm_counted}/
    {!arm_persistent} call still live (counted arms stay listed until
    their last shot is spent). *)

val fired : unit -> fired list [@@sider.allow "test-hook"]
(** Injections that have gone off, oldest first. *)

(** {2 Polling sites (called by instrumented code)} *)

val nan_class_for_sweep : sweep:int -> int option
(** Consume a [Nan_in_class] armed for this sweep, if any. *)

val should_fail_sweep : sweep:int -> bool
(** Consume a [Fail_sweep] armed for this sweep. *)

val journal_append_should_fail : path:string -> bool
(** Consume a [Journal_fail_append] matching this journal path. *)

val request_fault : path:string -> [ `Drop | `Delay of int | `Truncate ] option
(** Consume at most one armed service request injection matching this
    request path. *)

val should_crash_after_journal : path:string -> bool
(** Consume a [Svc_crash_after_journal] matching this request path. *)

val crash_compaction_at : path:string -> point:int -> unit
(** Consume a [Compact_crash] matching this journal path {e and} fault
    point, raising {!Crash_injected}; no-op otherwise. *)

(** {2 Deterministic pathological inputs} *)

val ill_conditioned_cov : d:int -> log10_kappa:float -> Mat.t
  [@@sider.allow "test-hook"]
(** A symmetric positive-definite [d×d] matrix with condition number
    [10^log10_kappa]: geometrically spaced eigenvalues in a fixed
    (seed-free) rotation. *)

val with_nans : Mat.t -> (int * int) list -> Mat.t [@@sider.allow "test-hook"]
(** Copy of the matrix with NaN written at each position. *)

val adversarial_rowsets : n:int -> int array list
(** Row selections designed to stress the partition/solver: the full row
    set, a duplicated cluster (same set twice), two heavily overlapping
    clusters, a singleton, and an interleaved comb. *)
