(** FastICA (Hyvärinen 1999) with the log-cosh contrast — the projection
    pursuit engine the paper uses once variance constraints make PCA
    uninformative (Sec. II-C).

    Symmetric fixed-point iteration on internally PCA-whitened data;
    components are returned as unit directions in the *input* space
    ordered by decreasing absolute {!Scores.direction_log_cosh}, exactly the
    ordering of the paper's Table I.

    The fit is split in two: {!prepare} does the seed-independent work
    (centering, covariance, whitening projection, the kernel-ready copy
    of z) and {!fit_prepared} runs the seed-dependent fixed point — so
    fits of the same data from different starts (a cold fit and a warm
    refit from its unmixing) pay the data passes once. *)

open Sider_linalg
open Sider_rand

type t = {
  directions : Mat.t;   (** d×m unit direction columns. *)
  scores : Vec.t;       (** Signed log-cosh negentropy proxy per column. *)
  iterations : int;
  converged : bool;
  unmixing : Mat.t;     (** Final m×m unmixing matrix in the internal
                            whitened basis, in fit order (not re-sorted
                            by score) — pass it back as [?w0] to warm a
                            later fit. *)
}

type prep
(** Seed-independent fit state for one data matrix. *)

val prepare : Mat.t -> prep
(** [prepare m] centers, whitens and binds the sweep kernel for the rows
    of [m].  Components whose internal-whitening eigenvalue is below
    1e-9 relative to the largest are dropped.
    Bumps the [ica.prepare] counter — the one-fit-per-view test pins
    that {!View.of_whitened} calls this once per view.  Raises
    [Invalid_argument] on fewer than two rows. *)

val fit_prepared : ?w0:Mat.t -> ?max_iter:int -> ?tol:float ->
  Rng.t -> prep -> t
(** [fit_prepared rng prep] runs the symmetric fixed point from a random
    orthonormal start drawn from [rng] — or from [w0] (re-decorrelated;
    ignored, falling back to the random draw, when its shape does not
    match the prepared component count).  [max_iter] defaults to 200,
    [tol] (fixed-point direction change) to 1e-4, matching the R
    fastICA defaults the paper used. *)

val fit : Rng.t -> Mat.t -> t
(** [fit rng m] = {!prepare} then {!fit_prepared}: extracts every
    non-degenerate independent direction from the rows of [m]. *)

val top2 : t -> Vec.t * Vec.t
(** The two most non-Gaussian directions.  Raises [Invalid_argument] if
    fewer than two components were extracted. *)
