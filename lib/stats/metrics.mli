(** Set-overlap and clustering-quality metrics.

    The paper reports Jaccard indices between user selections and ground
    truth classes (Sec. IV-B, IV-C); this module provides those and a few
    companions used in the experiments and tests. *)

val jaccard : int array -> int array -> float
(** Jaccard index of two index sets (duplicates ignored).  [1.0] when both
    are empty. *)

val best_class_match : selection:int array -> labels:string array ->
  (string * float) list
(** All classes with their Jaccard index to the selection, best first. *)
