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
  scratch_g : Vec.t;
  (** Internal reusable buffer for [Σw]; not part of the class state. *)
  mutable scratch_sigma : Mat.t;
  (** Internal reusable pre-update [Σ] snapshot for Woodbury rollback;
      not part of the class state. *)
}

val initial : int -> t
(** The prior [N(0, I_d)] (Eq. 1): [θ₁ = 0], [Σ = I], [m = 0]. *)

val copy : t -> t

val apply_linear : t -> lambda:float -> w:Vec.t -> unit
(** Add [λ w] to [θ₁]; [Σ] is unchanged and [m] shifts by [λ Σ w]. *)

val apply_quadratic :
  t -> lambda:float -> delta:float -> w:Vec.t ->
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

val second_moment : t -> Mat.t
(** [E[x xᵀ] = Σ + m mᵀ] (used by tests against Eq. 6 identities). *)
