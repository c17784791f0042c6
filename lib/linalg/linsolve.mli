(** General linear solves and inverses via LU with partial pivoting. *)

exception Singular

val inverse : Mat.t -> Mat.t
(** Raises {!Singular}. *)

val woodbury_rank1 : Mat.t -> float -> Vec.t -> Mat.t
(** [woodbury_rank1 sigma lambda w] is [(sigma⁻¹ + lambda w wᵀ)⁻¹] computed
    in O(d²) from [sigma] directly (Sherman-Morrison):
    [sigma − lambda (sigma w)(sigma w)ᵀ / (1 + lambda wᵀ sigma w)].
    This is the covariance update at the heart of the paper's quadratic
    constraint speedup.  Raises [Invalid_argument] if the update would make
    the matrix indefinite ([1 + lambda wᵀ sigma w <= 0]). *)
