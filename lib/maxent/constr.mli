(** Constraints on the Maximum-Entropy background distribution
    (paper Sec. II-A).

    A constraint fixes the expectation of a linear (Eq. 2) or quadratic
    (Eq. 3) function of the data rows in [rows] along direction [w] to the
    value observed in the data (Eq. 6).  The high-level knowledge types —
    margin, cluster, 1-cluster and 2-D constraints — are built out of
    these. *)

open Sider_linalg

type kind = Linear | Quadratic

type t = private {
  kind : kind;
  rows : int array;     (** Row subset [I], sorted, no duplicates. *)
  w : Vec.t;            (** Projection direction (unit length for the
                            built-in knowledge types). *)
  target : float;       (** [v̂ = f(X̂, I, w)]. *)
  shift : float;        (** [δ = m̂ᵀw] with [m̂] the data mean over [I]
                            (Eq. 4); 0 for linear constraints. *)
  tag : string;         (** Human-readable provenance for display. *)
}

val linear : ?tag:string -> data:Mat.t -> rows:int array -> w:Vec.t -> unit -> t
(** Fix [E[Σ_{i∈I} wᵀx_i]] to its observed value. *)

val quadratic : ?tag:string -> data:Mat.t -> rows:int array -> w:Vec.t ->
  unit -> t
(** Fix [E[Σ_{i∈I} (wᵀ(x_i − m̂_I))²]] to its observed value. *)

val margin : ?tag:string -> Mat.t -> t list
(** Mean and variance of every column: 2d constraints over all rows, the
    {!linear} and {!quadratic} constraint along each basis vector in
    column order, bit for bit.  All column statistics come from two
    row-major passes, and the constraints share one rows array. *)

val cluster : ?tag:string -> data:Mat.t -> rows:int array -> unit -> t list
(** Mean and variance along every principal direction of the cluster's own
    covariance (per-cluster SVD): 2d constraints on [rows]. *)

val one_cluster : ?tag:string -> Mat.t -> t list
(** {!cluster} over the full dataset: models the data by its principal
    components (overall covariance). *)

val two_d : ?tag:string -> data:Mat.t -> rows:int array -> w1:Vec.t ->
  w2:Vec.t -> unit -> t list
(** Mean and variance of [rows] along the two axes of the current
    projection: 4 constraints. *)

val eval : t -> Mat.t -> float
(** Value of the constraint function on a concrete data matrix; on the
    observed data this equals [target]. *)
