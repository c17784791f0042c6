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
       beyond a row block (32 rows up to 64 components, 16 KiB of [g]
       above), with a polynomial [tanh] (~1e-15 relative error).  One
       register-tiled kernel serves every width: scores four rows at a
       time, [tanh] down each column of the block, then [gᵀz] in 4×8
       register tiles over the block's rows.  Each output entry gets the
       same fused operations in the same row order whatever the tiling,
       and a test replays that arithmetic in OCaml ([Float.fma] for each
       fused instruction) and compares bits at widths 1 to 72, 100 and
       128.  Chosen by {!create} for every width when the CPU supports
       AVX2 and FMA.  Rows go in chunks of 256, each summed into a
       partial of its own (buffers allocated by {!create}); the partials
       add up over an ordered tree whose shape depends on [n] alone.
       Deterministic, but {e not} bit-identical to the portable path.}
    {- [portable] — [Mat.matmul_nt_into], [Mat.tanh_into] and
       [Mat.matmul_tn_into] into one n×m buffer allocated by {!create},
       then the [eg] sums in increasing row order.  It serves CPUs
       without AVX2/FMA and {!with_portable}.}}

    The ICA goldens run under {!with_portable}, so they hold on every
    CPU. *)

open Sider_linalg

type t
(** Sweep state bound to one data matrix: the SIMD path keeps [z] with
    its columns zero-padded to a multiple of four and its per-chunk
    partials, the portable path [z] and an n×m buffer, so building [t]
    once per {!Fastica.prepare} and sweeping many times is the intended
    use. *)

val simd_available : unit -> bool
(** CPU supports AVX2 and FMA (probed once; false on non-x86-64). *)

val create : n:int -> m:int -> (float array -> int -> unit) -> t
(** [create ~n ~m fill] binds a kernel to the n×m whitened matrix [z]
    that [fill dst stride] writes into the kernel's own storage, row [i]
    at [dst.(i * stride)], entries [m] to [stride − 1] of each row left
    zero.  So [z] is built once, in the layout its path sweeps, with no
    copy. *)

val with_portable : (unit -> 'a) -> 'a [@@sider.allow "test-hook"]
(** [with_portable f] runs [f] with every {!create} inside it choosing
    the portable path — the anchor for byte-identity tests.  A test
    hook: production code never calls it. *)

val sweep : t -> w:Mat.t -> gz:Mat.t -> eg:Vec.t -> unit
(** [sweep t ~w ~gz ~eg] overwrites [gz] (m×m) and [eg] (length m) with
    the quantities above.  [w] must be m×m.  It allocates only the few
    words of its shape checks. *)
