(** The right singular vectors of a centered data matrix, from the
    symmetric eigensolver: for an [n×d] matrix [a], the eigenvectors of
    its row covariance are the right singular vectors of [a] centered.
    The paper's cluster constraint (Sec. II-A) uses only these
    directions. *)

val principal_directions : ?rows:int array -> Mat.t -> Mat.t * Vec.t
(** [principal_directions a] centers the rows of [a] and returns the
    eigenvectors (columns, by decreasing eigenvalue) and eigenvalues of the
    row covariance — the quantities the paper's cluster constraint derives
    from the per-cluster SVD.  With [rows], of the rows it picks, as for
    [Mat.select_rows a rows] but without the copy ({!Mat.covariance}). *)
