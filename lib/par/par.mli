(** Multicore execution layer: a persistent domain pool with deterministic
    fan-out primitives.

    Zero external dependencies ([Domain], [Mutex], [Condition] and
    [Atomic] from the standard library; {!Sider_obs} for instrumentation).

    {2 Determinism contract}

    Every primitive produces results that are **bit-identical for any
    domain count**, including 1:

    - {!parallel_for} and {!parallel_for_chunks} require the per-index
      (per-chunk) bodies to write disjoint state; each index runs exactly
      once with the same code on every path, so the final state cannot
      depend on the pool size.
    - {!parallel_reduce} fixes the chunk boundaries as a function of [n]
      (and the explicit [?chunk]) only — never of the domain count — and
      combines the per-chunk partials with an ordered binary tree over the
      chunk index order.  The same chunking and the same tree are used by
      the sequential path, so the floating-point result is independent of
      how chunks were scheduled across domains.

    Chunks are distributed dynamically (work stealing via a shared atomic
    cursor), which affects only {e which domain} runs a chunk, never the
    result.

    {2 Pool size}

    The pool size (total domains, including the caller's) defaults to the
    [SIDER_DOMAINS] environment variable, clamped to [\[1, 64\]]; unset,
    unparsable or [< 1] values mean 1, i.e. plain sequential execution
    with no domains spawned and no synchronization cost beyond one ref
    read per call.  {!set_domains} overrides the environment at runtime
    (used by tests and the scaling benchmarks).

    Nested calls degrade safely: a parallel primitive invoked from inside
    a parallel body (or from a worker domain) runs sequentially, on the
    same fixed chunk structure.

    {2 Observability}

    When the {!Sider_obs.Obs} layer is active, the pool maintains the
    [par.domains] gauge and the [par.tasks] / [par.chunks] /
    [par.tasks_queued] counters; each engaged fan-out emits a [par.run]
    span tagged with its label, records every chunk's wall time into the
    [par.chunk_wall_s] histogram and, on completion, sets the
    [par.pool_utilization] gauge (fraction of pool domains that ran at
    least one chunk) and the [par.chunk_imbalance] gauge (slowest chunk
    over the mean chunk; 1.0 = perfectly balanced).  A span that a
    parallel body completes on a worker domain goes to the flight
    recorder only, not to the sink (see {!Sider_obs.Obs}). *)

val domain_count : unit -> int
(** Current pool size (total domains including the caller's). *)

val set_domains : int -> unit
(** [set_domains n] resizes the pool to [n] total domains (clamped to
    [\[1, 64\]]), tearing down or spawning workers as needed.  Must not be
    called from inside a parallel body. *)

val parallel_for :
  ?chunk:int -> ?min:int -> ?label:string -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] exactly once for every
    [i] in [0 .. n-1].  Bodies must write disjoint state.  [?chunk] is the
    number of consecutive indices per scheduling unit (default:
    [max 1 (n/64)], rounded up).  When [n < min] (default 512) or the pool
    has a single domain, the loop runs inline with no scheduling cost. *)

val parallel_for_chunks :
  ?chunk:int -> ?min:int -> ?label:string -> n:int -> (int -> int -> unit)
  -> unit
(** [parallel_for_chunks ~n f] calls [f lo hi] for consecutive disjoint
    ranges [\[lo, hi)] covering [0 .. n-1] — one call per chunk, so the
    body can allocate per-chunk scratch once and loop locally. *)

val parallel_reduce :
  ?chunk:int -> ?min:int -> ?label:string -> n:int -> init:'a ->
  step:('a -> int -> 'a) -> combine:('a -> 'a -> 'a) -> unit -> 'a
(** [parallel_reduce ~n ~init ~step ~combine ()] folds [step] over each
    chunk of [0 .. n-1] (left to right, starting from [init]) and merges
    the per-chunk partials with an ordered binary tree.  [init] must be a
    neutral element of [combine].  The chunk structure and the tree shape
    depend only on [n] and [?chunk], so the result is bit-identical for
    any domain count.  Note the sequential path uses the same chunked
    tree: for non-associative operations (floating-point sums) the result
    may differ from a plain left fold by rounding, but never across pool
    sizes. *)

val parallel_reduce_chunks :
  ?chunk:int -> ?min:int -> ?label:string -> n:int ->
  part:(int -> int -> 'a) -> combine:('a -> 'a -> 'a) -> unit -> 'a option
(** Lower-level form: [part lo hi] computes one partial per chunk
    ([\[lo, hi)] as in {!parallel_for_chunks}); partials are merged with
    the same ordered tree.  [None] when [n <= 0]. *)
