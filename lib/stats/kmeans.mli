(** k-means clustering (k-means++ seeding, Lloyd iterations).

    Used by the simulated analyst ({!Sider_core.Auto_explore}) to mark the
    clusters a human user would see in a 2-D projection, which is the
    interaction the paper's use cases perform by hand. *)

open Sider_linalg
open Sider_rand

type result = {
  assignment : int array;   (** Cluster index per row. *)
  centroids : Mat.t;        (** [k×d]. *)
  inertia : float;          (** Sum of squared distances to centroids. *)
  iterations : int;
}

val fit : Rng.t -> k:int -> Mat.t -> result
(** [fit rng ~k data] clusters the rows of [data].  Runs 4 k-means++
    initialisations of at most 100 Lloyd iterations each and keeps the
    best inertia.
    Raises [Invalid_argument] if [k] exceeds the number of rows or is not
    positive. *)

val choose_k : ?k_max:int -> Rng.t -> Mat.t -> result
(** Fit for k = 2..k_max (default 6, capped by row count) and return the
    clustering with the best silhouette. *)
