(** Dense row-major matrices of floats.

    All shape-sensitive operations raise [Invalid_argument] on mismatch.
    Matrices are mutable through {!set}; the algebraic operations are
    functional and allocate fresh results.  The [_into] variants write
    into caller-provided storage instead, for allocation-free inner
    loops; destinations must have the exact result shape and (except for
    the element-wise operations) must not alias an input.

    The kernels run on the caller's domain.  Their blocking and register
    tiling never change the order in which an entry accumulates, so the
    floats do not depend on them. *)

type t = private { rows : int; cols : int; a : float array }

val create : int -> int -> t
(** [create r c] is an [r]×[c] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_array : int -> int -> float array -> t
(** [of_array r c a] is the [r]×[c] matrix whose rows lie one after
    another in [a], sharing [a]: no copy is made.  Raises
    [Invalid_argument] unless [a] has [r·c] entries. *)

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal length. *)

val copy : t -> t

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] overwrites [dst] with the contents of [src]
    (same shape required). *)

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t

val row_dot : t -> int -> Vec.t -> float
(** [row_dot m i v] is [Vec.dot (row m i) v] without materializing the
    row. *)

val col : t -> int -> Vec.t

val set_row : t -> int -> Vec.t -> unit

val transpose : t -> t

val sub : t -> t -> t

val matmul : t -> t -> t

val matmul_centred_into :
  dst:float array -> stride:int -> t -> float array -> t -> unit
(** [matmul_centred_into ~dst ~stride x mean y] writes row [i] of
    [(x − 1·meanᵀ) y] to [dst] from [i * stride], for every row: the
    floats {!matmul} gives for [y] and the copy of [x] with [mean]
    subtracted from every row, without that copy.  The [stride − y.cols]
    entries after each row are left as they are.  [dst] must not alias
    an input. *)

val matmul_nt : t -> t -> t
(** [matmul_nt x y] is [x yᵀ] without forming the transpose;
    bit-identical to [matmul x (transpose y)]. *)

val matmul_nt_into : dst:t -> t -> t -> unit
(** In-place form of {!matmul_nt} ([dst] must not alias an input). *)

val matmul_tn_into : dst:t -> t -> t -> unit
(** [matmul_tn_into ~dst x y] writes [xᵀ y] into [dst] without forming
    the transpose; bit-identical to [matmul (transpose x) y].  [dst] must
    not alias an input. *)

val mv : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val mv_into : dst:Vec.t -> t -> Vec.t -> unit
(** [mv_into ~dst m v] writes [m v] into [dst] (length [rows]; must not
    alias [v]). *)

val quad_form : t -> Vec.t -> float
(** [quad_form m v] is [vᵀ m v] for a square [m]. *)

val rank1_update : t -> float -> Vec.t -> unit
(** [rank1_update m alpha v] performs [m <- m + alpha * v vᵀ] in place for
    square [m]. *)

val trace : t -> float

val frobenius : t -> float

val symmetrize : t -> t
(** [(m + mᵀ)/2]. *)

val is_symmetric : ?eps:float -> t -> bool

val map : (float -> float) -> t -> t

val tanh_into : dst:t -> t -> unit
(** [tanh_into ~dst m] writes [tanh] of each entry of [m] into [dst],
    with [tanh] called directly (unboxed) — the FastICA inner-loop
    kernel.  [dst] may alias [m]. *)

val col_means : t -> Vec.t

val col_variances : t -> Vec.t
(** Population variances per column. *)

val covariance : ?rows:int array -> t -> t
(** Population covariance (divide by [n]) of the rows of [m], or of the
    rows [rows] picks, in that order: the floats [covariance (select_rows
    m rows)] gives, without the copy.  The products of the centred
    entries are summed over the rows in order, each row centred into a
    [cols]-float scratch rather than an [n×d] copy.  Raises
    [Invalid_argument] on no rows or an index out of range. *)

val select_rows : t -> int array -> t
