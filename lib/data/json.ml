type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ------------------------------------------------------------- *)

(* The C primitive behind [Printf]'s [%f], [%e] and [%g] conversions:
   [Printf.sprintf "%.17g" x] is [format_float "%.17g" x], without
   interpreting the format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let hex_digits = "0123456789abcdef"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
    (* Remaining control characters, always below 0x20. *)
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf hex_digits.[Char.code c lsr 4];
    Buffer.add_char buf hex_digits.[Char.code c land 15]

(* Runs of characters that need no escaping are copied whole, so a
   clean string costs one [Buffer.add_substring]. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if needs_escape c then begin
        Buffer.add_substring buf s !start (i - !start);
        add_escape buf c;
        start := i + 1
      end)
    s;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* JSON has no infinity or NaN, so a non-finite number prints as
   [null]. *)
let number_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else format_float "%.17g" x

let to_string t =
  let buf = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number x -> Buffer.add_string buf (number_to_string x)
    | String s -> escape_into buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------------- *)

(* Index-based: the parser reads [src] in place, allocating only the
   values it returns. *)
type parser_state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (msg ^ " at position " ^ string_of_int st.pos))

(* [at st c]: the next character is [c]. *)
let at st c = st.pos < String.length st.src && String.unsafe_get st.src st.pos = c

let skip_ws st =
  let src = st.src in
  let i = ref st.pos in
  while
    !i < String.length src
    && (match String.unsafe_get src !i with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    incr i
  done;
  st.pos <- !i

let expect st c =
  if at st c then st.pos <- st.pos + 1
  else fail st ("expected '" ^ Char.escaped c ^ "'")

let parse_literal st word value =
  let n = String.length word in
  let rec matches k =
    k = n || (String.unsafe_get st.src (st.pos + k) = word.[k] && matches (k + 1))
  in
  if st.pos + n <= String.length st.src && matches 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

(* One escape sequence; [st.pos] is just past the backslash. *)
let parse_escape st buf =
  let src = st.src in
  if st.pos >= String.length src then fail st "bad escape";
  let simple c =
    Buffer.add_char buf c;
    st.pos <- st.pos + 1
  in
  match src.[st.pos] with
  | '"' -> simple '"'
  | '\\' -> simple '\\'
  | '/' -> simple '/'
  | 'n' -> simple '\n'
  | 't' -> simple '\t'
  | 'r' -> simple '\r'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'u' ->
    st.pos <- st.pos + 1;
    if st.pos + 4 > String.length src then fail st "bad \\u escape";
    let hex = String.sub src st.pos 4 in
    let code =
      try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape"
    in
    st.pos <- st.pos + 4;
    (* Encode the BMP code point as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  | _ -> fail st "bad escape"

(* The index of the first '"' or '\\' in [src] at or after [i], or the
   length of [src]. *)
let rec string_stop src i =
  if i < String.length src
     && (let c = String.unsafe_get src i in c <> '"' && c <> '\\')
  then string_stop src (i + 1)
  else i

(* A string with no escapes is one [String.sub] of the source; otherwise
   the runs between escapes are copied whole into a buffer. *)
let parse_string_raw st =
  expect st '"';
  let src = st.src in
  let len = String.length src in
  let start = st.pos in
  let i = string_stop src start in
  if i < len && String.unsafe_get src i = '"' then begin
    st.pos <- i + 1;
    String.sub src start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    let rec go from =
      let i = string_stop src from in
      Buffer.add_substring buf src from (i - from);
      st.pos <- i;
      if i >= len then fail st "unterminated string"
      else if String.unsafe_get src i = '"' then st.pos <- i + 1
      else begin
        st.pos <- i + 1;
        parse_escape st buf;
        go st.pos
      end
    in
    go start;
    Buffer.contents buf
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number st =
  let src = st.src in
  let start = st.pos in
  let i = ref start in
  while !i < String.length src && is_num_char (String.unsafe_get src !i) do
    incr i
  done;
  st.pos <- !i;
  if !i = start then fail st "expected number";
  match float_of_string_opt (String.sub src start (!i - start)) with
  | Some f -> f
  | None -> fail st "malformed number"

let rec parse_value st =
  skip_ws st;
  if st.pos >= String.length st.src then fail st "unexpected end of input";
  match String.unsafe_get st.src st.pos with
  | 'n' -> parse_literal st "null" Null
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | '"' -> String (parse_string_raw st)
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while at st ',' do
        st.pos <- st.pos + 1;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string_raw st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while at st ',' do
        st.pos <- st.pos + 1;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | _ -> Number (parse_number st)

let of_string src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing content";
  v

(* --- accessors ----------------------------------------------------------------- *)

let member key = function
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some v -> v
     | None -> raise Not_found)
  | _ -> invalid_arg "Json.member: not an object"

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Number x -> x
  | _ -> invalid_arg "Json.to_float: not a number"

let to_int j =
  let f = to_float j in
  if Float.is_integer f then int_of_float f
  else invalid_arg "Json.to_int: not an integer"

let to_str = function
  | String s -> s
  | _ -> invalid_arg "Json.to_str: not a string"

let to_bool = function
  | Bool b -> b
  | _ -> invalid_arg "Json.to_bool: not a bool"

let to_list = function
  | List items -> items
  | _ -> invalid_arg "Json.to_list: not a list"

let floats xs = List (Array.to_list (Array.map (fun x -> Number x) xs))

let to_floats j = Array.of_list (List.map to_float (to_list j))

let ints xs =
  List (Array.to_list (Array.map (fun x -> Number (float_of_int x)) xs))

let to_ints j = Array.of_list (List.map to_int (to_list j))
