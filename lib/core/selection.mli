(** Ways of selecting points, mirroring the SIDER UI: direct marking in
    the scatter plot (rectangle/radius), by predefined class, or saved
    groupings. *)

type t = int array
(** A selection is a sorted array of distinct row indices. *)

val in_rectangle : Session.t -> xmin:float -> xmax:float -> ymin:float ->
  ymax:float -> t
(** Rows whose current-view coordinates fall in the rectangle. *)

val within_radius : Session.t -> center:float * float -> radius:float -> t

val by_class : Session.t -> string -> t
(** Rows with the given ground-truth label (the UI's "pre-defined classes"
    shortcut). *)

val size : t -> int

type store

val store_create : unit -> store

val save : store -> string -> t -> unit
(** Saved groupings, re-usable across iterations (UI feature). *)

val load : store -> string -> t option
