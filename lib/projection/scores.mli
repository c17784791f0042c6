(** Informativeness scores of projection directions (paper Sec. II-C).

    A direction of whitened data is interesting exactly to the extent its
    1-D marginal deviates from the standard normal. *)

open Sider_linalg

val pca_gain : float -> float
(** [(σ² − log σ² − 1) / 2] for a direction of variance σ² — the KL
    divergence from [N(0,σ²)] to [N(0,1)]; zero iff σ² = 1, large for both
    inflated and collapsed variances (footnote 1 of the paper). *)

val direction_log_cosh : ?scratch:Vec.t -> Mat.t -> Vec.t -> float
(** The signed FastICA negentropy proxy of the projection [s] of the
    rows onto the direction: [E[log cosh s'] − E[log cosh ν]] where [s']
    is [s] standardized and [ν ~ N(0,1)].  Zero in expectation for
    Gaussian input; matches the sign behaviour of the paper's Table I
    "ICA scores".  [s] and [s'] are computed in [scratch], of one float
    a row, when it is given (a fresh array otherwise), so scoring many
    directions of one matrix allocates nothing a row. *)
