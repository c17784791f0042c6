(** Generic projection pursuit by line search on the unit sphere — the
    "tailor-made line search algorithm" of the paper's predecessor
    (Sec. V, ref. [14]) that PCA/ICA-on-whitened-data replaces.

    Maximizes an arbitrary projection index over unit directions by
    random restarts and golden-section line searches along great circles.
    Kept as a baseline: the ablation bench shows the whitening+ICA route
    reaching comparable indices far faster. *)

open Sider_linalg
open Sider_rand

type index = Mat.t -> Vec.t -> float
(** A projection index: data matrix × unit direction → interestingness. *)

val abs_log_cosh : index
(** |signed log-cosh negentropy proxy| (see
    {!Scores.direction_log_cosh}). *)

val top2 : ?restarts:int -> Rng.t -> index -> Mat.t -> Vec.t * Vec.t
(** Best direction plus the best direction of the orthogonal complement
    (found by deflation: the second search is projected orthogonal to the
    first), giving a full 2-D pursuit view.  Each search runs [restarts]
    (default 5) starts; each start performs up to 20 passes in which the
    direction is line-searched along a random orthogonal great circle
    (golden-section over the rotation angle) until the improvement in
    one pass falls below 1e-6. *)
