(** Descriptive statistics of one variable. *)

open Sider_linalg

val standardize_into : dst:Vec.t -> Vec.t -> unit
(** [standardize_into ~dst v] writes [v] at zero mean and unit
    (population) variance into [dst], of [v]'s length; a constant vector
    is centered only.  [dst] may be [v]: the mean and variance are taken
    before anything is written. *)
