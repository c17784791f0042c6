(** Baselines the paper compares against (Sec. V).

    - {b Static projection pursuit}: plain PCA/ICA of the data with fixed
      objectives and no interaction — what the paper argues shows "the
      most prominent features" regardless of what the user already knows.
    - {b Constrained randomization} (Puolamäki et al., ECML-PKDD 2016,
      ref. [14]): the background "distribution" is defined only through
      permutation samples that preserve marked statistics approximately.
      The paper's claim is that the analytic MaxEnt background is faster;
      the ablation bench quantifies the gap on this implementation. *)

open Sider_linalg
open Sider_rand

val static_pca : Mat.t -> Sider_projection.View.t
(** First two principal components by variance. *)

val static_ica : ?rng:Rng.t -> Mat.t -> Sider_projection.View.t
(** First two FastICA components. *)

type randomizer

val swap_randomizer : ?within:int array array -> Mat.t -> randomizer
(** A constrained-randomization background: each sample permutes every
    column independently, restricted to the given row groups ([within],
    default: one group of all rows).  Group-restricted permutation
    preserves each group's per-column value multiset — the permutation
    analogue of cluster constraints. *)

val sample_mean_sd : randomizer -> Rng.t -> int ->
  (Mat.t -> float) -> float * float
(** Monte-Carlo mean and sd of a statistic over [k] permutation samples —
    the way [14] scores a projection's surprisingness. *)
