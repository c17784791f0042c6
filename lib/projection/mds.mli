(** Classical (Torgerson) multidimensional scaling — one of the static
    dimensionality-reduction baselines the paper positions itself against
    (Sec. V, refs. [28], [29]).

    Classical MDS double-centers the squared distance matrix and embeds
    on the top eigenvectors; with Euclidean input it coincides with PCA
    coordinates. *)

open Sider_linalg

val fit : ?dims:int -> Mat.t -> Mat.t
(** [fit m] embeds the rows of the [n×d] data matrix into [dims]
    (default 2) dimensions using Euclidean pairwise distances.  Raises
    [Invalid_argument] unless [1 ≤ dims ≤ n].  Negative eigenvalues are
    clamped to zero. *)
