(** Informativeness scores of projection directions (paper Sec. II-C).

    A direction of whitened data is interesting exactly to the extent its
    1-D marginal deviates from the standard normal. *)

open Sider_linalg

val pca_gain : float -> float
(** [(σ² − log σ² − 1) / 2] for a direction of variance σ² — the KL
    divergence from [N(0,σ²)] to [N(0,1)]; zero iff σ² = 1, large for both
    inflated and collapsed variances (footnote 1 of the paper). *)

val gaussian_log_cosh : float
(** [E[log cosh ν], ν ~ N(0,1)] — the reference value of the log-cosh
    contrast. *)

val log_cosh_score : Vec.t -> float
(** Signed FastICA negentropy proxy of a sample:
    [E[log cosh s] − E[log cosh ν]] where [s] is the standardized input.
    Zero in expectation for Gaussian input; matches the sign behaviour of
    the paper's Table I "ICA scores". *)

val direction_log_cosh : Mat.t -> Vec.t -> float
(** {!log_cosh_score} of the projection of the rows onto the direction. *)
