(** Cholesky factorization of symmetric positive-(semi)definite matrices. *)

exception Not_positive_definite

val decompose : Mat.t -> Mat.t
(** [decompose a] returns the lower-triangular [l] with [l lᵀ = a].
    Raises {!Not_positive_definite} if a pivot is non-positive. *)

val decompose_psd : ?jitter:float -> Mat.t -> Mat.t
(** Like {!decompose} but tolerates positive semi-definite input: pivots
    below [jitter] (default [1e-12]) are treated as zero and their column
    set to zero, so that [l lᵀ ≈ a] for singular covariance matrices (as
    produced by the Fig. 5 adversarial constraints). *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve l b] solves [l lᵀ x = b] given the Cholesky factor [l]. *)

val inverse : Mat.t -> Mat.t
(** [inverse l] is [(l lᵀ)⁻¹] given the Cholesky factor [l]. *)
