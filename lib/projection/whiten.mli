(** Whitening of the data with respect to the background distribution
    (paper Eq. 14 / Sec. II-B).

    Each row is mapped through [y_i = Σ_i^{-1/2} (x_i − m_i)] using the
    symmetric (direction-preserving) square root of its class's inverse
    covariance.  If the data followed the background distribution exactly,
    [Y] would be a sample of the unit spherical Gaussian — so any
    structure left in [Y] is exactly what the user does not yet know. *)

open Sider_linalg
open Sider_maxent

val whiten : Solver.t -> Mat.t
(** Whitened version of the solver's data matrix: [Σ_c^{-1/2}] per
    equivalence class, through the floored symmetric square root.
    Eigenvalues of [Σ] are clamped below at [max(1e-12, 1e-10·λ_max)],
    so both the zero-variance classes of the Fig. 5 adversarial
    solutions and near-singular Σ from long constraint sessions stay
    finite instead of raising.  Raises
    [Sider_robust.Sider_error.Error (Nan_detected _)] if a Σ contains
    non-finite entries — the only failure mode left. *)

val whiten_matrix : Solver.t -> Mat.t -> Mat.t [@@sider.allow "test-hook"]
(** Apply the same per-row transformations to another matrix of the same
    shape (e.g. a sample of the background distribution; its whitened
    image is approximately unit spherical by construction). *)
