(** Dense vectors of floats.

    A vector is a plain [float array]; this module provides the numerical
    operations the rest of the library needs, all allocation-explicit.  All
    binary operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val copy : t -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of length [n]. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] computes [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val dist2 : t -> t -> float
(** Euclidean distance. *)

val normalize : t -> t
(** [normalize v] is [v] scaled to unit Euclidean norm; returns a zero
    vector unchanged. *)

val sum : t -> float

val mean : t -> float

val variance : ?mean:float -> t -> float
(** Population variance (divide by [n]). *)

val min : t -> float

val max : t -> float
