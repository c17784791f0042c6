(** Descriptive statistics for the SIDER statistics panel (Sec. III) and
    for the test suite. *)

open Sider_linalg

type summary = {
  n : int;
  mean : float;
  sd : float;           (** Population standard deviation. *)
  min : float;
  max : float;
  median : float;
  q25 : float;
  q75 : float;
}

val summarize : Vec.t -> summary
(** Raises [Invalid_argument] on an empty vector. *)

val quantile : Vec.t -> float -> float
(** Linear-interpolation (type-7) quantile, [p] in [[0,1]]. *)

val median : Vec.t -> float

val skewness : Vec.t -> float

val kurtosis : Vec.t -> float
(** Excess kurtosis (0 for the normal distribution). *)

val correlation : Vec.t -> Vec.t -> float
(** Pearson correlation; 0 if either side is constant. *)

val standardize : Vec.t -> Vec.t
(** Zero mean, unit (population) variance; constant vectors are centered
    only. *)
