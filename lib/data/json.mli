(** Minimal JSON implementation (no external dependencies are available in
    the build environment), used to persist analysis sessions.

    Full RFC 8259 value model; the printer emits compact one-line output;
    the parser accepts arbitrary whitespace, escapes (including [\uXXXX]
    for BMP code points) and scientific-notation numbers. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line output.  A finite number prints as exactly the bytes
    of the C library's [Printf.sprintf "%.17g"] (integers below [1e15]
    thus print without a point or exponent, and [-0.] as [-0]), so every
    finite float reads back bit for bit.  JSON has no infinity or NaN: a
    non-finite number prints as [null].  The bytes are part of the file
    formats: [Persist] checks a checksum by re-printing the parsed tree.
    The printer computes them itself and asks the C library only when it
    cannot prove them (docs/ALGORITHMS.md §8). *)

exception Parse_error of string
(** Carries a character-position-annotated message. *)

val of_string : string -> t
(** Raises {!Parse_error}.  A number token is the longest run of the
    characters [0-9 + - . e E], and it reads as [float_of_string_opt]
    reads it (the C library's [strtod]): the same float, bit for bit,
    and the same tokens refused.  So besides JSON's own number syntax
    the lenient forms [+1], [.5] and [1.] are accepted, and a literal
    too large for a float (say [1e999]) reads as an infinity.  Arrays
    and objects may nest at most 512 deep; deeper input raises
    {!Parse_error} ["nesting deeper than 512"]. *)

(** Accessors: raise [Invalid_argument] on shape mismatch. *)

val member : string -> t -> t
(** Raises [Not_found] if the key is absent (use {!member_opt}). *)

val member_opt : string -> t -> t option

val to_float : t -> float

val to_int : t -> int
(** Raises [Invalid_argument] unless the number is an integer of
    magnitude at most 2{^53}, the range where a float names one integer. *)

val to_str : t -> string

val to_bool : t -> bool

val to_list : t -> t list

val floats : float array -> t
(** Encode a float array as a JSON list. *)

val to_floats : t -> float array

val ints : int array -> t

val to_ints : t -> int array
