(** 2-D Gaussian confidence ellipses.

    SIDER draws 95% confidence ellipsoids for the selected points and for
    the corresponding background samples (paper Sec. III, Fig. 7). *)

type t = {
  center : float * float;
  axis1 : float * float;   (** Unit direction of the major axis. *)
  axis2 : float * float;   (** Unit direction of the minor axis. *)
  radius1 : float;         (** Half-length along [axis1]. *)
  radius2 : float;         (** Half-length along [axis2]. *)
}

val of_points : (float * float) array -> t
(** Fit the mean/covariance of the points and return their 95%
    confidence ellipse.  Requires at least one point; degenerate
    covariances give zero radii. *)

val polyline : t -> (float * float) array
(** 65 points on the ellipse boundary, for rendering: 64 segments,
    closed (the first point repeated at the end). *)
