(** FastICA sweep kernels.

    One sweep evaluates, for a fixed whitened data matrix [z] (n×m) and a
    candidate unmixing matrix [w] (m×m):

    {ul
    {- [s = z wᵀ] (scores, n×m),}
    {- [g = tanh s] (contrast, n×m),}
    {- [gz = gᵀ z] (Gram numerator of the fixed-point update, m×m),}
    {- [eg.(k) = Σᵢ (1 − g(i,k)²)] (the E[g'] column sums).}}

    Two implementations sit behind {!sweep}:

    {ul
    {- [simd] — AVX2+FMA C stubs that never materialise [s] or [g]
       beyond a 32-row block, with a polynomial [tanh] (~1e-15 relative
       error).  One register-tiled kernel serves every width: scores
       four rows at a time, [tanh] down each column of the block, then
       [gᵀz] in 4×8 register tiles over the block's rows.  Each output
       entry gets the same fused operations in the same row order
       whatever the tiling, and a test replays that arithmetic in OCaml
       ([Float.fma] for each fused instruction) and compares bits at
       every width from 1 to 64.  Chosen by {!create} when the CPU
       supports AVX2 and FMA and there are at most 64 components.
       Deterministic — including across [SIDER_DOMAINS] — because the
       per-chunk partial sums (256 rows each, buffers allocated by
       {!create}) are combined over a chunk grid that depends only on
       [n] ({!Sider_par} discipline), but {e not} bit-identical to the
       portable path.}
    {- [portable] — [Mat.matmul_nt_into], [Mat.tanh_into] and
       [Mat.matmul_tn_into] into one n×m buffer allocated by {!create},
       then the [eg] sums in increasing row order.  Bit-identical for any
       domain count.  It serves CPUs without AVX2/FMA, views with more
       than 64 components, and {!with_portable}.}}

    The ICA goldens run under {!with_portable}, so they hold on every
    CPU. *)

open Sider_linalg

type t
(** Sweep state bound to one data matrix: the SIMD path keeps a padded
    copy of [z] and its per-chunk partials, the portable path an n×m
    buffer, so building [t] once per {!Fastica.prepare} and sweeping
    many times is the intended use. *)

val simd_available : unit -> bool
(** CPU supports AVX2 and FMA (probed once; false on non-x86-64). *)

val create : Mat.t -> t
(** [create z] binds a kernel to the whitened matrix [z].  The caller
    must not mutate [z] afterwards (the SIMD path snapshots it; the
    portable path reads it live). *)

val with_portable : (unit -> 'a) -> 'a [@@sider.allow "test-hook"]
(** [with_portable f] runs [f] with every {!create} inside it choosing
    the portable path — the anchor for byte-identity tests.  A test
    hook: production code never calls it. *)

val sweep : t -> w:Mat.t -> gz:Mat.t -> eg:Vec.t -> unit
(** [sweep t ~w ~gz ~eg] overwrites [gz] (m×m) and [eg] (length m) with
    the quantities above.  [w] must be m×m.  On one domain it allocates
    only the fan-out's few words, not its outputs. *)
