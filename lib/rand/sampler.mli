(** Random variates and permutations built on {!Rng}. *)

open Sider_linalg

val normal : Rng.t -> float
(** Standard normal variate: one element of {!Rng.fill_normal}, the
    library's one normal generator (polar Box–Muller, no cached partner,
    so each draw runs a fresh rejection loop and [split] streams stay
    independent). *)

val normal_vec : Rng.t -> int -> Vec.t
(** [n] variates from one {!Rng.fill_normal}: the same values as [n]
    calls of {!normal}, and nothing allocated beside the result. *)

val normal_mat : Rng.t -> int -> int -> Mat.t
(** An [r]×[c] matrix of variates drawn in row-major order by one
    {!Rng.fill_normal}, the order of [r·c] calls of {!normal}. *)

val poisson : Rng.t -> lambda:float -> int
(** Knuth's method for small lambda, normal approximation above 720 (where
    [exp (-. lambda)] underflows). *)

val categorical : Rng.t -> Vec.t -> int
(** Draw an index with probability proportional to the (non-negative)
    weights. *)

val dirichlet : Rng.t -> Vec.t -> Vec.t
(** Dirichlet variate via Gamma draws (Marsaglia-Tsang). *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : Rng.t -> int -> int -> int array
(** [sample_without_replacement rng k n] draws [k] distinct indices from
    [[0, n)], in random order. *)
