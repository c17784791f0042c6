(** One-sample Kolmogorov-Smirnov tests.

    Used as the quantitative form of the paper's stopping condition
    ("typically when there are no notable differences between the data and
    the background distribution"): after whitening, every coordinate
    should be standard normal, and the KS distance to Φ measures how far
    from 'explained' the data still is. *)

open Sider_linalg

val test_gaussian : Vec.t -> float * float
(** [(d, p)] against the standard normal: the KS distance
    [sup_x |F_n(x) − Φ(x)|] and its asymptotic p-value (Kolmogorov
    distribution with the Stephens small-sample correction).  Raises
    [Invalid_argument] on an empty sample. *)
