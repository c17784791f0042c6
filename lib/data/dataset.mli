(** A dataset: an [n×d] real matrix with column names and optional row
    class labels.

    Labels are never shown to the exploration engine — exactly as in the
    paper, where the BNC genres and segmentation classes are "only used
    retrospectively" to score what the analyst found. *)

open Sider_linalg

type t

val create : ?name:string -> ?labels:string array -> columns:string array ->
  Mat.t -> t
(** Raises [Invalid_argument] if the column-name count does not match the
    matrix width, or labels (when given) do not match the row count. *)

val name : t -> string

val matrix : t -> Mat.t

val n_rows : t -> int

val n_cols : t -> int

val columns : t -> string array

val labels : t -> string array option

val classes : t -> string list
(** Distinct labels in order of first appearance; empty without labels. *)

val class_indices : t -> string -> int array

val standardized : t -> t
(** Columns scaled to zero mean, unit variance (constant columns are only
    centered).  The paper standardizes data before exploration so the
    spherical-Gaussian prior (Eq. 1) is meaningful. *)

val with_matrix : t -> Mat.t -> t
(** Same metadata, new matrix of identical shape. *)

val describe : t -> string
(** One-line human summary: name, n, d, classes. *)
