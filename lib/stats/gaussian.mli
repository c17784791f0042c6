(** Univariate Gaussian utilities. *)

val cdf : float -> float
(** The standard normal CDF, via [erf] (Abramowitz-Stegun 7.1.26
    rational approximation, absolute error < 1.5e-7, sufficient for
    confidence bands). *)

val log_cosh_moment : float
(** [E[log cosh X]] for [X ~ N(0,1)], the Gaussian reference value of the
    FastICA log-cosh contrast; paper Table I scores are measured relative
    to it.  A literal: the bits a 200,000-point trapezoid over
    [[-12, 12]] gives, which a test recomputes and compares bit for bit,
    so no process spends its start-up integrating it. *)

val chi2_quantile_2d : float -> float
(** Quantile of the chi-square distribution with 2 degrees of freedom
    (closed form: [-2 log (1-p)]); radius² of 2-D Gaussian confidence
    ellipses, e.g. 5.991 at p = 0.95 (paper Sec. III). *)
