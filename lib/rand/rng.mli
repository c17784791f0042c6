(** Deterministic pseudo-random number generation.

    Implementation: xoshiro256++ (Blackman & Vigna) seeded through
    splitmix64, so every experiment in the repository is reproducible from
    a single integer seed, independent of the OCaml runtime's [Random]
    state and of the platform. *)

type t

val create : int -> t
(** [create seed] builds a generator from any integer seed. *)

val split : t -> t
(** [split t] derives an independent generator stream from [t] (and
    advances [t]).  Used to hand substreams to subsystems without coupling
    their consumption patterns. *)

val float : t -> float
(** Uniform in [[0, 1)] with 53-bit resolution. *)

val fill_normal : t -> float array -> pos:int -> len:int -> unit
(** [fill_normal t dst ~pos ~len] writes [len] standard normal variates
    into [dst.(pos)] .. [dst.(pos + len - 1)], in index order.  This is
    the library's one normal generator: polar Box–Muller, one variate per
    accepted pair of {!float} draws (the partner is discarded), so the
    stream is the one a loop of scalar polar draws gives and it depends
    only on how many variates were drawn, not on how they were grouped
    into calls.  It allocates nothing.  Raises [Invalid_argument] when
    the range does not fit in [dst]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]; [bound] must be positive.
    Uses rejection sampling, so the distribution is exact. *)

val bool : t -> bool
