(** Iterative-scaling solver for the Maximum-Entropy background
    distribution (paper Problem 1 / Sec. II-A.1).

    The solver cycles over the constraints; for each it solves for the
    *change* of the constraint's Lagrange multiplier such that the
    constraint holds exactly under the updated distribution — in closed
    form for linear constraints (Eq. 9) and by monotone 1-D root finding
    for quadratic ones (Eq. 10).  Problem 1 is convex, so cyclic exact
    minimisation converges to the global optimum.

    Cost per quadratic update is O(d²) (rank-1 Woodbury) plus O(classes)
    for the root search; nothing depends on [n] (row equivalence
    classes). *)

open Sider_linalg
open Sider_rand
open Sider_robust

type t

type sweep = {
  sweep : int;            (** 1-based number of the completed sweep. *)
  updates : int;          (** Constraint updates so far in this solve,
                              rolled-back sweeps included. *)
  max_dlambda : float;    (** Largest multiplier change in the sweep. *)
  max_dparam : float;     (** Largest projected mean / sd change in the
                              sweep. *)
  woodbury_fast : int;    (** Quadratic class applies in the sweep that
                              took the O(d²) rank-1 path. *)
  woodbury_recompute : int;
                          (** Those that fell back to the full O(d³)
                              recompute. *)
  woodbury_frozen : int;  (** Those that froze their class. *)
}
(** The solver's per-sweep record, passed to {!solve}'s [trace]. *)

type report = {
  sweeps : int;           (** Full passes over the constraint set. *)
  updates : int;          (** Individual constraint updates performed. *)
  converged : bool;       (** False when stopped by budget/cutoff. *)
  max_dlambda : float;    (** Largest multiplier change in the last sweep. *)
  max_dparam : float;     (** Largest projected mean / sd change in the
                              last sweep, in units of the data sd. *)
  elapsed : float;        (** Wall-clock seconds spent in [solve]. *)
  degradations : Sider_error.t list;
                          (** Numerical faults survived during the solve,
                              oldest first: rank-1 updates that fell back
                              to a full recompute, sweeps rolled back
                              after a NaN scan, recovery-budget
                              exhaustion.  Empty on a clean solve. *)
}

val create : Mat.t -> Constr.t list -> t
(** A fresh solver whose background distribution is the prior [N(0, I)]
    for every row. *)

val add_constraints : t -> Constr.t list -> t
(** Extend the constraint set, *keeping* the current solved parameters as
    the starting point of the next {!solve} (the new equivalence classes
    refine the old ones, so every new class inherits its old class's
    parameters).  This is what each SIDER iteration does when the user
    marks new clusters.  The optimum is unique (Lemma 1), so the next
    solve reaches the same background as a solve from the prior, in
    fewer sweeps. *)

val data : t -> Mat.t

val constraints : t -> Constr.t array

val partition : t -> Partition.t

val n_classes : t -> int

val class_params : t -> int -> Gauss_params.t
(** Parameters of class [i] (live view: mutated by {!solve}). *)

val row_params : t -> int -> Gauss_params.t
(** Parameters governing a data row. *)

val solve : ?max_sweeps:int -> ?lambda_tol:float -> ?param_tol:float ->
  ?time_cutoff:float -> ?trace:(sweep -> unit) -> t -> report
(** Run iterative scaling until convergence: full sweeps over every
    constraint, from the parameters the solver holds, at most
    [max_sweeps] (default 1000) of them.

    Every sweep is guarded: class parameters are scanned for NaN/Inf
    before and after the sweep.  A poisoned pre-sweep state resets the
    offending class to the prior; a sweep that *produces* non-finite
    parameters is rolled back to its snapshot and retried with a halved
    step, up to 8 times in total, after which the solver stops at the
    last finite state ([converged = false], a [Solver_divergence] entry
    in [degradations]).  The solver therefore never returns non-finite
    parameters and never raises on numerical failure.

    Convergence follows the paper's criterion: the maximal absolute
    multiplier change in a sweep is below [lambda_tol] (default 1e-2), or
    the maximal change of constraint means / square-root variances is
    below [param_tol] (default 1e-2) times the standard deviation of the
    full data.  [time_cutoff] (wall-clock seconds, default none) reproduces the
    SIDER ~10 s cutoff that guards against the slow adversarial cases of
    Fig. 5.  A single multiplier change is bounded by 1e7, reached only
    when a constraint's target variance is exactly zero (singular
    optimum, Eq. 13).

    [trace] gets one {!sweep} record per completed sweep, after the
    post-sweep scan and before the convergence test; a rolled-back sweep
    gets none.  It is the solver's only per-sweep record: the Fig. 5b
    curves and [sider convergence] read the solver state through it.
    Telemetry stays at sweep granularity: a [solver.sweep] span, the
    [solver.updates] counter and the sweep's Woodbury outcomes added to
    the [gauss.woodbury.{fast,recompute,frozen}] counters (before the
    post-sweep scan, so a rolled-back sweep's applies count too, and
    only non-zero counts). *)

val expectation : t -> Constr.t -> float
(** [E_p[f_c(X, I, w)]] under the current background distribution
    (Eq. 6 left-hand side). *)

val residual : t -> float [@@sider.allow "test-hook"]
(** Maximum over constraints of [|expectation − target|] scaled by
    [max(1, |target|)]: a global feasibility measure used by tests. *)

val residual_by_kind : t -> float * float
(** {!residual} split into [(linear, quadratic)] worst cases (0 for a
    kind with no constraints).  One expectation per constraint per
    class: [sider convergence] calls it from its [trace] callback; the
    solver itself never does. *)

val relative_entropy : t -> float [@@sider.allow "test-hook"]
(** [−S = E_p[log(p(X)/q(X))]]: the Kullback-Leibler divergence of the
    background distribution from the prior (the negated objective of
    Problem 1, Eq. 5).  Closed form per row,
    [KL(N(m,Σ) ‖ N(0,I)) = (tr Σ + mᵀm − d − log det Σ)/2], summed over
    rows.  It is 0 with no constraints and grows monotonically as
    constraints accumulate — each additional constraint set can only
    move the MaxEnt solution further from the prior. *)

val sample : t -> Rng.t -> Mat.t
(** One dataset drawn from the background distribution: row [i] is
    drawn from [N(m_i, Σ_i)], through one PSD Cholesky factorization of
    [symmetrize Σ] per class, every class factored before a row is
    drawn.  Classes in order, each class's member rows in ascending
    order, each row takes its [d] variates from {!Rng.fill_normal}, so
    the draws and bits are those of [mean + L·z] per member row, [z]
    from {!Sampler.normal_vec} and the product summed as {!Mat.mv} sums
    it. *)

val sample_projected : t -> Rng.t -> w1:Vec.t -> w2:Vec.t ->
  dst1:Vec.t -> dst2:Vec.t -> unit
(** The rows {!sample} would draw from the same generator, seen only
    through two directions: [dst1.(i)] and [dst2.(i)] are row [i]'s dot
    products with [w1] and [w2], summed as {!Mat.mv_into} sums a row,
    and the generator is left where {!sample} leaves it.  Each row is
    drawn into one [d]-float scratch, so nothing of size [n×d] is
    allocated and no float is boxed per row.  Every class is factored
    before [dst1] or [dst2] is written, so a factor that raises leaves
    them as they were.  Raises [Invalid_argument] when a direction is
    not of length [d] or a destination not of length [n]. *)

val mean_matrix : t -> Mat.t [@@sider.allow "test-hook"]
(** The per-row means as an [n×d] matrix. *)
