(** Exact t-distributed Stochastic Neighbor Embedding (van der Maaten &
    Hinton 2008) — the strongest static manifold-learning baseline the
    paper discusses (Sec. V, ref. [33]).

    O(n²) per iteration, intended for the paper's data sizes (n up to a
    few thousand).  Standard recipe: adaptive per-point bandwidths by
    binary search on perplexity, symmetrized affinities, early
    exaggeration, gradient descent with momentum and per-parameter gains. *)

open Sider_linalg
open Sider_rand

type params = {
  dims : int;            (** Embedding dimensionality (default 2). *)
  perplexity : float;    (** Default 30. *)
  iterations : int;      (** Default 500. *)
  learning_rate : float; (** ≤ 0 selects the 'auto' rate
                             [max(n/(4·exaggeration), 50)] (the default). *)
  exaggeration : float;  (** Early-exaggeration factor (default 12,
                             applied for the first quarter). *)
}

val default_params : params

val fit : ?params:params -> Rng.t -> Mat.t -> Mat.t
(** [fit rng m] embeds the rows of [m].  Raises [Invalid_argument] when
    the perplexity is infeasible ([3·perplexity ≥ n]). *)
