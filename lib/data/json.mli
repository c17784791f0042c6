(** Minimal JSON implementation (no external dependencies are available in
    the build environment), used to persist analysis sessions.

    Full RFC 8259 value model; the printer emits compact one-line output;
    the parser accepts arbitrary whitespace, escapes (including [\uXXXX]
    for BMP code points) and scientific-notation numbers.

    Besides the tree ({!of_string}, {!to_string}) the parser is exposed
    as a {!cursor} and the printer as a {!writer}, so a large document
    can be read or written without building its tree.  There is one
    grammar: {!of_string} is itself a client of the cursor, so a
    document gets the same value, the same {!Parse_error} message and
    position and the same depth bound whichever way it is read. *)

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

(** {2 Cursor}

    A position in a source string, read one value at a time.  Every
    reading call first skips whitespace and raises {!Parse_error}
    exactly where {!of_string} would on the same text.  After an
    exception the cursor is not reusable. *)

type cursor

val cursor : string -> cursor
(** A cursor at the start of the source. *)

val peek : cursor -> [ `Null | `Bool | `Number | `String | `List | `Obj ]
(** The kind of the value at the cursor, from its first character;
    nothing is consumed.  Any character that starts no other kind is a
    [`Number] (so {!read_number_into} reports a bad token).  Raises
    {!Parse_error} ["unexpected end of input"] at the end. *)

val read_value : cursor -> t
(** The value at the cursor, as a tree. *)

val read_array : cursor -> (unit -> unit) -> unit
(** The array at the cursor, element by element: [f ()] is called with
    the cursor at each element and must read exactly that one value. *)

val read_object : cursor -> (string -> unit) -> unit
(** The object at the cursor, field by field in document order: [f key]
    is called with the cursor at the field's value and must read exactly
    that one value.  Repeated keys are each passed on ({!member} of the
    tree finds the first). *)

val read_number_into : cursor -> float array -> int -> unit
(** [read_number_into c dst k] reads the number at the cursor into
    [dst.(k)]: the bits {!of_string} gives it, without allocating on the
    common path. *)

val finish : cursor -> unit
(** Only whitespace is left; otherwise raises {!Parse_error}
    ["trailing content"]. *)

(** {2 Writer}

    A growable byte buffer.  {!to_string} prints a tree through one, so
    printing field by field gives the bytes the tree would. *)

type writer

val writer : int -> writer
(** An empty writer with room for about this many bytes. *)

val write : writer -> t -> unit
(** The bytes {!to_string} gives the tree. *)

val write_number : writer -> float -> unit
(** The bytes {!to_string} gives [Number x]. *)

val write_number_at : writer -> float array -> int -> unit
(** [write_number_at w a k] writes the bytes {!write_number} gives
    [a.(k)], reading the float in place, so nothing is boxed. *)

val write_int : writer -> int -> unit
(** The bytes {!to_string} gives [Number (float_of_int i)], without
    boxing a float. *)

val write_floats : writer -> float array -> int -> int -> unit
(** [write_floats w a pos n] writes the bytes {!to_string} gives
    [floats (Array.sub a pos n)], e.g. one row of a row-major matrix,
    without allocating. *)

val write_string : writer -> string -> unit
(** The bytes {!to_string} gives [String s]: quoted and escaped. *)

val write_raw : writer -> string -> unit
(** The bytes as they are, e.g. punctuation and known-clean keys. *)

val write_char : writer -> char -> unit

val length : writer -> int

val clear : writer -> unit
(** Empty the writer, keeping its buffer for the next text. *)

val capacity : writer -> int
(** The size of the live buffer, in bytes. *)

val bytes : writer -> Bytes.t
(** The live buffer: its first {!length} bytes are the text written so
    far.  Valid until the next write, which may replace it. *)

val contents : writer -> string

(** {2 Accessors}

    They raise [Invalid_argument] on shape mismatch. *)

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
