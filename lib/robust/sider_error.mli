(** Structured numerical-failure descriptions.

    Every recoverable failure of the pipeline — a covariance that lost
    positive-definiteness, a solver sweep that produced NaN, FastICA
    refusing to converge, a degenerate input file — is described by a
    {!t} carrying enough context (class index, constraint tag, sweep
    number, free-form detail) to render a useful diagnostic and to let
    callers decide between retry, degradation and abort.

    The variants are the failure taxonomy of the robustness layer:

    - {!Singular_covariance}: a Σ lost (or never had) positive
      definiteness beyond what the jitter ladder could repair;
    - {!Solver_divergence}: the iterative-scaling loop exhausted its
      recovery budget (rollback + damped retry) without a clean sweep;
    - {!Non_convergence}: an iterative method (FastICA, the solver) hit
      its iteration budget without meeting its tolerance;
    - {!Degenerate_data}: the input itself is unusable — constant
      columns, duplicate headers, non-numeric cells, empty selections;
    - {!Nan_detected}: a non-finite value appeared in a state that must
      stay finite (class parameters, whitening input);
    - {!Io_failure}: a persistence operation (snapshot write, journal
      append, recovery read) failed at the filesystem level — disk
      full, permission denied, an injected journal fault. *)

type context = {
  class_index : int option;    (** Row-equivalence class involved. *)
  constraint_tag : string option; (** Provenance tag of the constraint. *)
  sweep : int option;          (** Solver sweep number when it happened. *)
  detail : string;             (** Human-readable specifics. *)
}

type t =
  | Singular_covariance of context
  | Solver_divergence of context
  | Non_convergence of context
  | Degenerate_data of context
  | Nan_detected of context
  | Io_failure of context

exception Error of t
(** The exception form, for code that cannot return a [result]. *)

(** The constructors take the context fields their callers know; the
    last argument is the detail. *)

val singular_covariance :
  ?class_index:int -> ?constraint_tag:string -> string -> t

val solver_divergence : ?class_index:int -> ?sweep:int -> string -> t

val non_convergence : string -> t

val degenerate_data : ?constraint_tag:string -> string -> t

val nan_detected : ?class_index:int -> ?sweep:int -> string -> t

val io_failure : string -> t

val context_of : t -> context

val label : t -> string
(** Short kebab-case tag of the variant, e.g. ["singular-covariance"]. *)

val to_string : t -> string
(** One-line diagnostic: label, context fields present, detail. *)

val raise_ : t -> 'a
(** [raise_ e] raises [Error e]. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting known numerical exceptions into [Error _]:
    [Error e] unwraps to [e]; [Failure]/[Invalid_argument]/
    [Division_by_zero] become {!Degenerate_data}; [Sys_error] becomes
    {!Io_failure}.  Other exceptions (e.g. [Out_of_memory],
    [Stack_overflow], [Sys.Break]) propagate. *)
