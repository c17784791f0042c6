(** Descriptive statistics of one variable. *)

open Sider_linalg

val standardize : Vec.t -> Vec.t
(** Zero mean, unit (population) variance; constant vectors are centered
    only. *)
