(** Synthetic datasets used throughout the paper.

    Every generator is deterministic given its [seed]. *)

val three_d : ?seed:int -> unit -> Dataset.t
(** The 3-D introduction dataset (Fig. 2): 150 points, clusters A and B of
    50 points, C and D of 25 points; C and D share their location in the
    first two dimensions and separate (with partial overlap) only along
    the third, so the first PCA view shows three clusters. *)

type x5 = {
  data : Dataset.t;       (** 1000×5; labels are the dims-1-3 groups A-D. *)
  group13 : string array; (** Cluster id in dims 1-3: A, B, C or D. *)
  group45 : string array; (** Cluster id in dims 4-5: E, F or G. *)
}

val x5 : ?seed:int -> ?n:int -> unit -> x5
(** The running-example dataset X̂5 (Fig. 3): five dimensions, four
    clusters A-D in dims 1-3 arranged so that in every 2-D axis-projection
    of dims 1-3 cluster A coincides with one of B, C, D; three clusters
    E-G in dims 4-5; points of B, C, D belong to E or F with probability
    75% (else G) and points of A always belong to G. *)

val clustered : ?seed:int -> n:int -> d:int -> k:int -> unit -> Dataset.t
(** The Table-II runtime-experiment generator: [k] cluster centroids are
    sampled at random and [n] points allocated around them (labels
    [c0..c{k-1}]). *)

val adversarial : unit -> Dataset.t
(** The 3-point, 2-D dataset of Eq. (11) / Fig. 5:
    rows (1,0), (0,1), (0,0). *)

val gaussian : ?seed:int -> n:int -> d:int -> unit -> Dataset.t
(** Pure [N(0, I)] noise — the null case where no view should show
    structure. *)
