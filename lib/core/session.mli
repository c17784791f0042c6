(** An interactive SIDER exploration session (paper Sec. III).

    A session owns a dataset (standardized on entry, so the spherical
    Gaussian prior of Eq. 1 is meaningful), the growing constraint set,
    the MaxEnt solver state, the current most-informative 2-D view and a
    cached sample of the background distribution.  Every interaction of
    the paper's UI is a function here:

    - look at the current view ({!current_view}, {!scatter});
    - select points ({!Selection});
    - declare knowledge ({!add_cluster_constraint},
      {!add_two_d_constraint}, {!add_margin_constraint},
      {!add_one_cluster_constraint});
    - recompute the background distribution ({!update_background});
    - ask for the next most informative projection ({!recompute_view}).

    Class labels in the dataset are invisible to the engine and only used
    by {!class_match} for retrospective evaluation, as in the paper. *)

open Sider_linalg
open Sider_data
open Sider_maxent
open Sider_projection
open Sider_robust

type t

type event =
  | Added_cluster of { rows : int array; tag : string }
  | Added_two_d of { rows : int array; tag : string }
  | Added_margin
  | Added_one_cluster
  | Updated of { time_cutoff : float; max_sweeps : int option }
  | Viewed of View.method_
      (** The interaction log: everything needed to replay an analysis
          ({!Persist}). *)

type point = {
  index : int;
  x : float;
  y : float;
  label : string option;      (** Ground-truth class, when known. *)
  background : float * float; (** Projection of this row's paired
                                  background sample (the gray point the
                                  UI connects with a line). *)
}

val create : ?seed:int -> ?standardize:bool -> ?jitter:float ->
  ?method_:View.method_ -> Dataset.t -> t
(** Start a session: standardize (default true), install the [N(0,I)]
    prior, compute the initial view with the given projection method
    (default PCA — the paper's UI default).

    [jitter] (default 1e-3, standardized units; 0 disables) adds
    independent Gaussian noise to the engine's working copy of the data.
    This is the paper's Sec. II-A.2 "replicate each data point with random
    noise" device: it bounds every direction's data variance away from
    zero so that degenerate directions (constant columns, exactly
    collinear attributes) get large-but-finite informativeness and stop
    being informative once the background distribution has absorbed
    them.

    Raises [Invalid_argument] if [jitter] is NaN or infinite, or if the
    data contains NaN or infinite values (naming the first offending
    row/column). *)

val dataset : t -> Dataset.t
(** The original dataset. *)

val data : t -> Mat.t
(** The (standardized) matrix the engine works on. *)

val solver : t -> Solver.t

val creation_args : t -> int * bool * float * View.method_
(** [(seed, standardize, jitter, initial method)] — the arguments the
    session was created with, recorded for persistence/replay. *)

val history : t -> event list
(** All interactions so far, oldest first. *)

val method_ : t -> View.method_

val n_constraints : t -> int

val constraint_tags : t -> string list
(** Distinct provenance tags, in insertion order. *)

val add_cluster_constraint : ?tag:string -> t -> int array -> unit
(** Declare "these rows form a cluster" (2d constraints from the cluster
    SVD).  Constraints are queued; call {!update_background} to re-solve. *)

val add_two_d_constraint : ?tag:string -> t -> int array -> unit
(** Declare the selection's mean and variance along the two axes of the
    *current view* (4 constraints). *)

val add_margin_constraint : t -> unit
(** Column means and variances of the full data (2d constraints). *)

val add_one_cluster_constraint : t -> unit
(** Full-data cluster constraint — overall covariance (2d constraints). *)

val update_background : ?trace:string -> ?time_cutoff:float ->
  ?max_sweeps:int -> t -> (Solver.report, Sider_error.t) result
(** Re-solve the MaxEnt problem with all queued constraints, starting
    from the current background's parameters ({!Solver.add_constraints}).
    The default [time_cutoff] is 10 s, the SIDER production default;
    [max_sweeps] caps the solve's sweeps (default: {!Solver.solve}'s).
    The convergence tolerances are {!Solver.solve}'s defaults.

    [trace] (the driving request's trace id, when the session service
    runs the update) is attached to the update span and to any
    failure-triggered flight-recorder dump, so the access log, span tree
    and dump for one request all carry the same id.

    Never raises on numerical failure.  [Ok report] may describe a
    degraded-but-valid solve (finite parameters;
    [report.Solver.degradations] lists every recovery).  [Error e] means
    the update could not be applied at all; the session is rolled back
    to its pre-update checkpoint — the previous background distribution
    and the still-queued constraints — so the analyst can drop a
    constraint or retry rather than lose the session.

    The attempt is recorded in {!history} whether or not the solve
    succeeds: persistence journals the event before applying it, and
    recovery arithmetic depends on journal records and history events
    staying 1:1 (a replayed failure rolls back identically, so the
    reconstructed state is unaffected). *)

val update_background_exn : t -> Solver.report
(** {!update_background} with its defaults, unwrapped: raises
    [Sider_error.Error] on failure.  For scripts and benchmarks where
    failure is unexpected. *)

val degradations : t -> Sider_error.t list
(** Every numerical fault the session has survived, oldest first:
    solver recoveries, constraint rollbacks, and the degradation of
    every view shown, the one {!create} computes included. *)

val recompute_view : ?method_:View.method_ -> t -> View.t
(** Whiten against the current background distribution and find the most
    informative projection; refreshes the cached background sample and the
    per-point pairing. *)

val current_view : t -> View.t

val scatter : t -> point array
(** The current scatter plot: data coordinates, paired background-sample
    coordinates, labels.  Point [i]'s coordinates are the dot products
    of row [i] of {!data} and of {!background_sample} with the view's
    two axis directions, summed as {!Mat.row_dot} sums them.  The
    service prints its projection responses from those matrices in the
    same order ({!Mat.mv_into}), without building this array. *)

val background_points : t -> (float * float) array
(** Projections of the cached background sample. *)

val background_sample : t -> Mat.t
(** The cached background sample: one row per data row, the sample
    paired with that row.  Drawn by {!create} and redrawn by
    {!recompute_view}; not to be modified. *)

val axis_labels : ?top:int -> t -> string * string
(** Paper-style axis labels of the current view. *)

val view_scores : t -> float * float

type attribute_stat = {
  attribute : string;
  selection_mean : float;
  selection_sd : float;
  data_mean : float;
  data_sd : float;
}

val selection_stats : t -> int array -> attribute_stat array
(** Per-attribute statistics of a selection against the full data, on the
    engine's standardized scale, ordered by decreasing
    [|selection_mean − data_mean|] — the UI's left statistics panel and
    the attribute choice of the selection pairplot. *)

val class_match : t -> int array -> (string * float) list
(** Jaccard index of a selection against every ground-truth class (best
    first); empty when the dataset has no labels. *)

val residual_gaussianity : t -> float * float
(** [(d, p)] of a Kolmogorov-Smirnov test of the pooled whitened
    coordinates against the standard normal — a quantitative version of
    the paper's stopping condition: if the background distribution
    explains the data, the whitened data is a unit spherical Gaussian and
    [d] is small.  (With n·d pooled values the test is extremely powerful,
    so judge by [d] falling over iterations rather than by [p] alone.) *)

val confidence_ellipses : t -> int array ->
  Sider_stats.Ellipse.t * Sider_stats.Ellipse.t
(** 95% confidence ellipses of a selection in the current view:
    (selection points, their background samples) — the solid and dotted
    blue ellipsoids of the UI. *)
