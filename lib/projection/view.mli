(** The 2-D projection shown to the user.

    A view carries the two projection directions found on the *whitened*
    data, their informativeness scores, and axis labels expressed as
    combinations of the original variables — e.g.
    ["PCA1[0.093] = +0.71 (X1) -0.71 (X2) +0.01 (X3)"], matching the
    figures of the paper.  The direction-preserving whitening (Eq. 14)
    is what makes the whitened-space directions meaningful in the original
    variable basis. *)

open Sider_linalg
open Sider_rand
open Sider_maxent
open Sider_robust

type method_ = Pca | Ica

type axis = {
  direction : Vec.t;   (** Unit direction in data space. *)
  score : float;       (** PCA gain or ICA log-cosh score. *)
}

type t = {
  method_ : method_;   (** The method that actually produced the axes —
                           [Pca] when an ICA request degraded. *)
  axis1 : axis;
  axis2 : axis;
  degraded : Sider_error.t option;
      (** [Some _] when the view is the product of graceful degradation:
          FastICA used non-converged directions, or fell back to PCA. *)
  unmixing : Mat.t option;
      (** The ICA unmixing matrix that produced the axes ([None] for
          PCA): feed it back as [?ica_w0] to warm the next view after an
          incremental background update. *)
}

val of_whitened : ?rng:Rng.t -> ?ica_max_iter:int -> ?ica_w0:Mat.t ->
  method_:method_ -> Mat.t -> t
(** Compute the most informative view of a whitened matrix.  [rng] seeds
    the FastICA initialisation (default: fixed seed 42).

    An ICA view runs one FastICA fit: from [ica_w0] when its shape
    matches the prepared component count, otherwise from one start drawn
    from [rng].  A fit that does not converge is not retried: it has
    almost always found no distinguished pair (its top scores tie), and
    another start would only draw another arbitrary pair.  Its
    directions are used when usable (≥ 2 finite directions) and the
    view is flagged [degraded]; when
    unusable, the view falls back to PCA with the degradation recorded.
    [ica_max_iter] is passed through to {!Fastica.fit_prepared} (mainly
    for tests forcing non-convergence).  Raises [Invalid_argument] when
    fewer than two usable directions exist even for PCA (d < 2). *)

val of_solver : ?rng:Rng.t -> ?ica_w0:Mat.t -> method_:method_ ->
  Solver.t -> t
(** Whiten the solver's data with respect to its background distribution
    into the process's lent buffer ({!Whiten.with_whitened}), then find
    the view of it — one full step of the paper's pipeline.  The view
    keeps no reference to the buffer. *)

val project : t -> Mat.t -> (float * float) array
(** Coordinates of each row of a matrix in the view. *)

val axis_label : ?top:int -> columns:string array -> prefix:string ->
  axis -> string
(** Format an axis as the paper does: score in brackets, then the [top]
    (default all) largest-magnitude loadings sorted by absolute value,
    e.g. ["ICA1[0.041] = +0.69 (X3) +0.69 (X2) ..."]. *)

val method_name : method_ -> string
