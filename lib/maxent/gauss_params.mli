(** Per-equivalence-class Gaussian parameters of the background
    distribution.

    Each class carries the natural parameter [θ₁ = Σ⁻¹m] and the dual
    parameters [(m, Σ)] (paper Eq. 8).  [θ₂ = Σ⁻¹] is never materialised:
    quadratic updates are applied to [Σ] directly through the
    Sherman-Morrison/Woodbury rank-1 identity in O(d²), which is the
    paper's key speedup. *)

open Sider_linalg

type t = {
  mutable theta1 : Vec.t;   (** Natural parameter [Σ⁻¹m]. *)
  mutable sigma : Mat.t;    (** Dual covariance [Σ]. *)
  mutable mean : Vec.t;     (** Dual mean [m = Σ θ₁]. *)
}

type scratch
(** The buffers one update works in: [Σw] and the pre-update [Σ] a
    failed Woodbury update is rolled back to.  Not class state: the
    updates run one at a time, so a solver keeps one for all its
    classes. *)

val scratch : int -> scratch
(** A scratch for classes of dimension [d]. *)

val initial : int -> t
(** The prior [N(0, I_d)] (Eq. 1): [θ₁ = 0], [Σ = I], [m = 0]. *)

val copy : t -> t

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst t] overwrites [dst]'s [θ₁], [Σ] and [m] with
    [t]'s, in [dst]'s own buffers.  Raises [Invalid_argument] when the
    dimensions differ. *)

val apply_linear : scratch:scratch -> t -> lambda:float -> w:Vec.t -> unit
(** Add [λ w] to [θ₁]; [Σ] is unchanged and [m] shifts by [λ Σ w]. *)

val apply_quadratic :
  scratch:scratch -> t -> lambda:float -> delta:float -> w:Vec.t ->
  [ `Sherman_morrison | `Recomputed | `Frozen ]
(** Add [λ δ w] to [θ₁] and [λ w wᵀ] to [Σ⁻¹].  [Σ] is updated in place by
    the rank-1 Woodbury formula and [m] by the induced O(d) correction;
    the result is validated (diagonal of [Σ] positive and finite) after
    the update.  Never raises:

    - [`Sherman_morrison] — the O(d²) fast path held (the normal case);
    - [`Recomputed] — positive definiteness was lost (or the update was
      indefinite, [1 + λ wᵀΣw ≤ 0]) and [Σ', m'] were recomputed from
      scratch in O(d³) through the jitter-laddered factorization;
    - [`Frozen] — even the full recompute failed; [Σ] keeps its
      pre-update value ([θ₁] still absorbs the multiplier, so the class
      is effectively frozen for this update).

    It records no telemetry: the solver tallies the outcomes per sweep
    (the [Solver.sweep] record) and adds them to the
    [gauss.woodbury.{fast,recompute,frozen}] counters. *)

val proj_mean : t -> Vec.t -> float
(** [wᵀ m]. *)

val proj_var : t -> Vec.t -> float
(** [wᵀ Σ w]. *)
