(** Symmetric eigendecomposition: Householder reduction to tridiagonal
    form followed by the implicit QL method with Wilkinson shifts (the
    EISPACK [tred2]/[tql2] pair).

    This powers the whitening transform (Eq. 14 of the paper), PCA on
    whitened data, the per-cluster SVD used by cluster constraints, and
    FastICA's symmetric decorrelation on every fixed-point iteration. *)

type decomposition = {
  values : Vec.t;      (** Eigenvalues in decreasing order. *)
  vectors : Mat.t;     (** Orthonormal eigenvectors as columns, matching
                           the order of [values]. *)
}

val symmetric : Mat.t -> decomposition
(** [symmetric a] decomposes the symmetric matrix [a] as
    [a = V diag(values) Vᵀ].  It works on [(a + aᵀ)/2], so an absolute
    asymmetry [|a.(i,j) − a.(j,i)|] up to [1e-6] is tolerated; larger
    asymmetry raises [Invalid_argument], as does a non-square [a].

    Eigenvalues come in decreasing order.  Each eigenvector is signed so
    that its largest-magnitude entry is positive (the lowest index wins
    ties), so an eigenvector of a simple eigenvalue is unique, not just
    unique up to sign.  Input with a non-finite entry returns without
    raising or looping; the result is then meaningless. *)

val power : ?clamp:float -> decomposition -> float -> Mat.t
(** [power dec p] is the symmetric matrix power [V diag(values^p) Vᵀ].
    Eigenvalues are clamped below at [clamp] (default [1e-12]) before
    exponentiation so that negative powers of singular matrices stay
    finite.  This gives the direction-preserving square roots used by the
    whitening transform. *)
