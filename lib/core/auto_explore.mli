(** A simulated analyst.

    The paper's use cases are driven by a human who looks at each 2-D
    projection, visually groups the points, marks the groups as cluster
    constraints and asks for the next view.  This module automates exactly
    that loop so the use cases run end-to-end and deterministically:
    cluster discovery in the 2-D view is done with k-means (k chosen by
    silhouette), tight clusters are marked, the background distribution is
    updated, and iteration stops once the view's informativeness score
    falls below a threshold — i.e. once "there are no notable differences
    between the data and the background distribution". *)

open Sider_rand

type iteration = {
  step : int;
  axis1_label : string;
  axis2_label : string;
  scores : float * float;          (** View scores before marking. *)
  selections : int array array;    (** Clusters marked in this view. *)
  class_matches : (string * float) list array;
      (** Best class Jaccard per selection (retrospective only). *)
  solver_report : Sider_maxent.Solver.report;
}

type result = {
  iterations : iteration list;
  final_scores : float * float;
  stopped :
    [ `Converged | `Max_iterations
    | `Degraded of Sider_robust.Sider_error.t ];
      (** [`Degraded e]: an update failed and was rolled back; the
          result reflects the last good state. *)
}

val mark_clusters : ?rng:Rng.t -> ?sample_cap:int -> Session.t ->
  int array array
(** What a user would circle in the current view: k-means clusters of the
    2-D coordinates (k ≤ 6 by silhouette, on at most [sample_cap]
    (default 1000) subsampled points), discarding clusters smaller than
    8 points. *)

val run : ?max_iterations:int -> ?score_threshold:float ->
  ?time_cutoff:float -> Session.t -> result
(** Full exploration loop.  Stops when the leading view score drops below
    [score_threshold] (default 0.01, calibrated to the paper's Table I
    final scores) or after [max_iterations] (default 6) views. *)
