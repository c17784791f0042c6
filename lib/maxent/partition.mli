(** Row equivalence classes.

    Two rows affected by exactly the same set of constraints share the
    same background-distribution parameters (paper Sec. II-A), so the
    solver stores parameters once per class.  The partition is the
    refinement of all constraint row-sets; each constraint's row-set is
    then a disjoint union of classes and per-constraint updates touch
    whole classes, making solver cost independent of [n]. *)

type t

val of_constraints : n:int -> Constr.t array -> t
(** Build the partition of [0..n-1] induced by the constraint row-sets.

    Construction is O(n + Σ|I|) integer work over the row sets [I]: one
    class array is refined constraint by constraint, then classes are
    renumbered.  Classes are numbered in order of their first row, which
    is the numbering a row scan that gives each new set of covering
    constraints the next id assigns.  The solver's sweep order, and so
    its bits, follow this numbering. *)

val n_classes : t -> int

val class_of_row : t -> int -> int

val members : t -> int -> int array
(** Rows of a class, ascending. *)

val size : t -> int -> int

val classes_of_constraint : t -> int -> (int * int) array
(** [classes_of_constraint t c] lists [(class_id, count)] for the classes
    whose rows the [c]-th constraint covers, ascending by class id;
    [count] equals the class size (classes are never split by a
    constraint).  The array is precomputed at construction. *)
