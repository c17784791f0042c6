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
(** Compact one-line output.  A number prints as [Printf]'s [%.0f] when it
    is an integer of magnitude below [1e15] and as [%.17g] otherwise, so
    every finite float reads back bit for bit.  JSON has no infinity or
    NaN: a non-finite number prints as [null]. *)

exception Parse_error of string
(** Carries a character-position-annotated message. *)

val of_string : string -> t
(** Raises {!Parse_error}.  A number literal too large for a float (say
    [1e999]) reads as an infinity. *)

(** Accessors: raise [Invalid_argument] on shape mismatch. *)

val member : string -> t -> t
(** Raises [Not_found] if the key is absent (use {!member_opt}). *)

val member_opt : string -> t -> t option

val to_float : t -> float

val to_int : t -> int

val to_str : t -> string

val to_bool : t -> bool

val to_list : t -> t list

val floats : float array -> t
(** Encode a float array as a JSON list. *)

val to_floats : t -> float array

val ints : int array -> t

val to_ints : t -> int array
