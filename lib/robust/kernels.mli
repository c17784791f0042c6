(** Guarded numerical kernels.

    Thin wrappers over {!Sider_linalg} factorizations that never raise on
    numerical failure: they repair what is repairable (escalating diagonal
    jitter), and report everything else as a structured
    {!Sider_error.t}. *)

open Sider_linalg

val finite_vec : Vec.t -> bool
(** Every entry finite (no NaN, no ±∞). *)

val finite_mat : Mat.t -> bool

val first_nonfinite_mat : Mat.t -> (int * int) option
(** Position of the first non-finite entry in row-major order. *)

val symmetric_inverse : Mat.t -> (Mat.t, Sider_error.t) result
(** Inverse of a symmetric positive-definite matrix through a strict
    Cholesky factorization of the symmetrized input, retrying with an
    escalating relative diagonal jitter ([0], then [1e-10] up to [1e-4],
    scaled by the mean absolute diagonal) so near-singular inputs are
    regularized rather than failing.  [Error] is
    {!Sider_error.Singular_covariance} (indefinite beyond the ladder),
    {!Sider_error.Nan_detected} (non-finite input) or
    {!Sider_error.Degenerate_data} (not square). *)
