(** Locally Linear Embedding (Roweis & Saul 2000) — the third manifold
    learning baseline the paper discusses (Sec. V, ref. [32]).

    Standard algorithm: reconstruct each point from its k nearest
    neighbours (ridge-regularized local Gram solve), then embed on the
    bottom non-trivial eigenvectors of [(I−W)ᵀ(I−W)].  Dense O(n²)/O(n³)
    implementation, adequate for the paper-scale datasets. *)

open Sider_linalg

val fit : ?dims:int -> ?neighbours:int -> Mat.t -> Mat.t
(** [fit m] embeds the rows of [m] into [dims] (default 2) dimensions
    using [neighbours] (default 10) nearest neighbours and a local ridge
    of 1e-3 relative to the local Gram trace.  Raises
    [Invalid_argument] if [neighbours >= n] or [dims >= neighbours+1]. *)
