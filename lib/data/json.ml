type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- number text ------------------------------------------------------------ *)

(* A number prints as the C library's [%.17g] and parses as its [strtod]
   (through [float_of_string_opt]).  The code below produces those bytes
   and bits itself whenever one double-double product proves them, and
   asks the C library otherwise; docs/ALGORITHMS.md §8 has the error
   analysis behind the two tolerances. *)

(* The C primitive behind [Printf]'s [%g]: [Printf.sprintf "%.17g" x] is
   [format_float "%.17g" x]. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^q for [pow10_min] ≤ q ≤ [pow10_max] as the unevaluated sum
   [pow10_hi.(i) +. pow10_lo.(i)], i = q - [pow10_min], with |lo| at most
   half an ulp of hi.  Exact for 0 ≤ q ≤ 22.  The positive powers come
   from repeated exact-product multiplication by 10, the negative ones
   from a double-double reciprocal of the positive ones; the relative
   error stays below 2^-96.  At |q| ≤ 290 every lo part is a normal
   float, so none loses bits to underflow. *)
let pow10_min = -290

let pow10_max = 290

let pow10_hi = Array.make (pow10_max - pow10_min + 1) 0.0

let pow10_lo = Array.make (pow10_max - pow10_min + 1) 0.0

let () =
  let h = ref 1.0 and l = ref 0.0 in
  for q = 0 to pow10_max do
    pow10_hi.(q - pow10_min) <- !h;
    pow10_lo.(q - pow10_min) <- !l;
    let p = !h *. 10.0 in
    let e = Float.fma !h 10.0 (-.p) +. (!l *. 10.0) in
    let s = p +. e in
    h := s;
    l := e -. (s -. p)
  done;
  for q = 1 to -pow10_min do
    let h = pow10_hi.(q - pow10_min) and l = pow10_lo.(q - pow10_min) in
    (* 1/(h+l) = y + y·(1 - y·h - y·l) to double-double accuracy. *)
    let y = 1.0 /. h in
    let c = y *. (Float.fma (-.y) h 1.0 -. (y *. l)) in
    let s = y +. c in
    pow10_hi.(-q - pow10_min) <- s;
    pow10_lo.(-q - pow10_min) <- c -. (s -. y)
  done

let p10_hi q = Array.unsafe_get pow10_hi (q - pow10_min)

let p10_lo q = Array.unsafe_get pow10_lo (q - pow10_min)

(* The biased binary exponent of a finite float.  Inlined, so that the
   float is not boxed for the call. *)
let[@inline] biased_exponent x =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52) land 0x7ff

(* --- output buffer ------------------------------------------------------------ *)

(* A growable byte buffer the number printer writes into directly: it
   reserves the exact length of a number, then fills it from both ends.
   [to_string] prints a tree into one; [Persist] prints documents, and
   the service its responses, into one without building the tree. *)
type writer = { mutable bytes : Bytes.t; mutable len : int; num : float array }

let writer capacity =
  { bytes = Bytes.create (max 16 capacity); len = 0; num = [| 0.0 |] }

let length o = o.len

let capacity o = Bytes.length o.bytes

let clear o = o.len <- 0

let bytes o = o.bytes

let contents o = Bytes.sub_string o.bytes 0 o.len

let grow o n =
  let cap = ref (2 * Bytes.length o.bytes) in
  while o.len + n > !cap do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit o.bytes 0 b 0 o.len;
  o.bytes <- b

let reserve o n = if o.len + n > Bytes.length o.bytes then grow o n

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let add_substring o s pos n =
  reserve o n;
  Bytes.blit_string s pos o.bytes o.len n;
  o.len <- o.len + n

let add_string o s = add_substring o s 0 (String.length s)

(* --- printing ------------------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape o c =
  match c with
  | '"' -> add_string o "\\\""
  | '\\' -> add_string o "\\\\"
  | '\n' -> add_string o "\\n"
  | '\r' -> add_string o "\\r"
  | '\t' -> add_string o "\\t"
  | c ->
    (* Remaining control characters, always below 0x20. *)
    add_string o "\\u00";
    add_char o hex_digits.[Char.code c lsr 4];
    add_char o hex_digits.[Char.code c land 15]

(* Runs of characters that need no escaping are copied whole, so a
   clean string costs one blit.  A loop, not [String.iteri], whose
   closure and captured ref would allocate on every call. *)
let escape_into o s =
  add_char o '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      add_substring o s !start (i - !start);
      add_escape o c;
      start := i + 1
    end
  done;
  add_substring o s !start (String.length s - !start);
  add_char o '"'

(* The number of decimal digits of [v], 0 ≤ v < 10^18.  A loop: a local
   function closing over [v] would allocate on every number. *)
let decimal_length v =
  let n = ref 1 and p = ref 10 in
  while v >= !p && !n < 18 do
    incr n;
    p := !p * 10
  done;
  !n

let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Writes the [n] low decimal digits of [v] ending just before [stop],
   two at a time, and returns the digits above them, [v / 10^n]. *)
let rec write_digits b stop n v =
  if n >= 2 then begin
    let q = v / 100 in
    let d = 2 * (v - (q * 100)) in
    Bytes.unsafe_set b (stop - 1) (String.unsafe_get digit_pairs (d + 1));
    Bytes.unsafe_set b (stop - 2) (String.unsafe_get digit_pairs d);
    write_digits b (stop - 2) (n - 2) q
  end
  else if n = 1 then begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (v mod 10)));
    v / 10
  end
  else v

let ten16 = 10_000_000_000_000_000

let ten17 = 100_000_000_000_000_000

(* Prints [r · 10^(k-16)], 10^16 ≤ r < 10^17, as [%.17g] lays out its 17
   significant digits: trailing zeros dropped, the point dropped with
   them, and exponent notation when k < -4 or k ≥ 17. *)
let add_digits17 o neg r k =
  let r = ref r and nd = ref 17 in
  while !r mod 10 = 0 do
    r := !r / 10;
    decr nd
  done;
  let r = !r and nd = !nd in
  let sign = if neg then 1 else 0 in
  if k < -4 || k >= 17 then begin
    let ak = abs k in
    let ed = if ak < 10 then 2 else decimal_length ak in
    let frac = if nd > 1 then nd else 0 in
    let n = sign + 1 + frac + 2 + ed in
    reserve o n;
    let b = o.bytes and p = o.len in
    if neg then Bytes.unsafe_set b p '-';
    ignore (write_digits b (p + n) ed ak);
    Bytes.unsafe_set b (p + n - ed - 1) (if k < 0 then '-' else '+');
    Bytes.unsafe_set b (p + n - ed - 2) 'e';
    let lead = write_digits b (p + sign + 1 + nd) (nd - 1) r in
    if nd > 1 then Bytes.unsafe_set b (p + sign + 1) '.';
    Bytes.unsafe_set b (p + sign) (Char.unsafe_chr (48 + lead));
    o.len <- p + n
  end
  else if k >= 0 then begin
    let ip = k + 1 in
    if nd <= ip then begin
      (* No fraction: the stripped zeros were integer digits. *)
      let n = sign + ip in
      reserve o n;
      let b = o.bytes and p = o.len in
      if neg then Bytes.unsafe_set b p '-';
      Bytes.fill b (p + sign + nd) (ip - nd) '0';
      ignore (write_digits b (p + sign + nd) nd r);
      o.len <- p + n
    end
    else begin
      let n = sign + nd + 1 in
      reserve o n;
      let b = o.bytes and p = o.len in
      if neg then Bytes.unsafe_set b p '-';
      let fd = nd - ip in
      let int_part = write_digits b (p + n) fd r in
      Bytes.unsafe_set b (p + n - fd - 1) '.';
      ignore (write_digits b (p + sign + ip) ip int_part);
      o.len <- p + n
    end
  end
  else begin
    (* -4 ≤ k ≤ -1: "0." and -k-1 zeros before the digits. *)
    let z = -k - 1 in
    let n = sign + 2 + z + nd in
    reserve o n;
    let b = o.bytes and p = o.len in
    if neg then Bytes.unsafe_set b p '-';
    Bytes.unsafe_set b (p + sign) '0';
    Bytes.unsafe_set b (p + sign + 1) '.';
    Bytes.fill b (p + sign + 2) z '0';
    ignore (write_digits b (p + n) nd r);
    o.len <- p + n
  end

(* An integer 0 ≤ v < 10^15, prefixed by '-' when [neg] (so -0 keeps its
   sign, as [%.17g] does). *)
let add_int o neg v =
  let nd = decimal_length v in
  let n = if neg then nd + 1 else nd in
  reserve o n;
  if neg then Bytes.unsafe_set o.bytes o.len '-';
  ignore (write_digits o.bytes (o.len + n) nd v);
  o.len <- o.len + n

(* Exactly [%.17g]'s bytes; JSON has no infinity or NaN, so a
   non-finite number prints as [null].

   Integers below 10^15 print through integer arithmetic.  Any other
   magnitude a in [1e-270, 1e289) is scaled to D = a·10^(16-k), k =
   ⌊log10 a⌋, by one double-double product: D = p + s where p, a float
   at least 10^16, is an integer, so ⌊D⌋ and D's fraction come from s
   alone.  The product's error is below 10^-11 (ALGORITHMS §8); when the
   fraction lies within [tie_margin] of 1/2, the rounding could go either
   way and the C library decides.  So do the few powers of ten whose
   nearest float lies below them, for which the estimate of k is one
   too large.

   The number is [src.(k)]: a float argument would be boxed, one read
   from a float array is not, so printing a matrix allocates nothing. *)
let tie_margin = 1e-9

let add_number_at o src k =
  let x = Array.unsafe_get src k in
  if not (Float.is_finite x) then add_string o "null"
  else begin
    let a = Float.abs x in
    let neg = x < 0.0 || (x = 0.0 && Float.sign_bit x) in
    if a < 1e15 && Float.of_int (Float.to_int a) = a then
      add_int o neg (Float.to_int a)
    else if a < 1e-270 || a >= 1e289 then add_string o (format_float "%.17g" x)
    else begin
      let e2 = biased_exponent a - 1023 in
      (* ⌊e2·log10 2⌋ for |e2| ≤ 1100; ⌊log10 a⌋ is k0 or k0 + 1. *)
      let k0 = (e2 * 78913) asr 18 in
      let k = if a >= p10_hi (k0 + 1) then k0 + 1 else k0 in
      let th = p10_hi (16 - k) in
      let p = a *. th in
      let s = Float.fma a th (-.p) +. (a *. p10_lo (16 - k)) in
      let fs = Float.to_int s in
      let fs = if Float.of_int fs > s then fs - 1 else fs in
      let frac = s -. Float.of_int fs in
      let r = Float.to_int p + fs in
      if p < 1e16 || r < ten16 || r >= ten17
         || Float.abs (frac -. 0.5) <= tie_margin
      then add_string o (format_float "%.17g" x)
      else if frac < 0.5 then add_digits17 o neg r k
      else if r + 1 = ten17 then add_digits17 o neg ten16 (k + 1)
      else add_digits17 o neg (r + 1) k
    end
  end

let write_number o x =
  Array.unsafe_set o.num 0 x;
  add_number_at o o.num 0

let write_number_at o a k =
  if k < 0 || k >= Array.length a then
    invalid_arg "Json.write_number_at: index out of bounds";
  add_number_at o a k

(* [%.17g] prints an integer of magnitude below 10^15 as its decimal
   digits, which [add_int] writes without boxing a float. *)
let write_int o i =
  if i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000 then
    add_int o (i < 0) (abs i)
  else write_number o (float_of_int i)

let write_floats o a pos n =
  if pos < 0 || n < 0 || pos > Array.length a - n then
    invalid_arg "Json.write_floats: range out of bounds";
  add_char o '[';
  for k = pos to pos + n - 1 do
    if k > pos then add_char o ',';
    add_number_at o a k
  done;
  add_char o ']'

let write o t =
  let rec go = function
    | Null -> add_string o "null"
    | Bool b -> add_string o (if b then "true" else "false")
    | Number x -> write_number o x
    | String s -> escape_into o s
    | List items ->
      add_char o '[';
      List.iteri
        (fun i item ->
          if i > 0 then add_char o ',';
          go item)
        items;
      add_char o ']'
    | Obj fields ->
      add_char o '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then add_char o ',';
          escape_into o k;
          add_char o ':';
          go v)
        fields;
      add_char o '}'
  in
  go t

let to_string t =
  let o = writer 1024 in
  write o t;
  contents o

let write_char = add_char

let write_raw = add_string

let write_string = escape_into

(* --- parsing ---------------------------------------------------------------- *)

(* Index-based: the parser reads a window of its source in place,
   allocating only the values it returns.  The window is [src]'s bytes
   [pos, len); [base] is the source position of [src]'s first byte, so a
   message's position is [base + pos] whichever window the byte sits in.
   A string's cursor has the whole string as its window and [ended]
   set.  A refillable cursor moves the bytes it still needs to the front
   of [src] and asks [read] for more after them ([refill]); [ended] is
   set once [read] returns 0.  [depth] counts the arrays and objects
   open at [pos]; [num] is where a number lands before [read_value]
   boxes it. *)
type cursor = {
  src : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable base : int;
  mutable ended : bool;
  read : Bytes.t -> int -> int -> int;
  mutable depth : int;
  num : float array;
}

(* The string is only read: a cursor with [ended] set never writes its
   window. *)
let cursor s =
  { src = Bytes.unsafe_of_string s; pos = 0; len = String.length s; base = 0;
    ended = true; read = (fun _ _ _ -> 0); depth = 0; num = [| 0.0 |] }

(* A window holds the most the cursor needs in view at once, the five
   bytes of "false", with room to spare. *)
let min_window = 16

let source b pos len read =
  if Bytes.length b < min_window || pos < 0 || len < 0 || pos > Bytes.length b - len
  then invalid_arg "Json.source: window too small or range out of bounds";
  { src = b; pos; len = pos + len; base = -pos; ended = false; read; depth = 0;
    num = [| 0.0 |] }

let fail_at at msg =
  raise (Parse_error (msg ^ " at position " ^ string_of_int at))

let fail st msg = fail_at (st.base + st.pos) msg

(* Moves the window's bytes from [keep] on (where the token being read
   starts, or [pos]) to the front of [src] and reads more after them;
   false, with [ended] set, at the end of the source.  The caller
   leaves room: [keep > 0] or a window short of [src]'s length. *)
let refill st keep =
  if st.ended then false
  else begin
    let kept = st.len - keep in
    Bytes.blit st.src keep st.src 0 kept;
    st.base <- st.base + keep;
    st.pos <- st.pos - keep;
    st.len <- kept;
    let k = st.read st.src kept (Bytes.length st.src - kept) in
    if k > 0 then st.len <- kept + k else st.ended <- true;
    k > 0
  end

(* [n] bytes are in the window at [pos], unless the source ends first. *)
let rec ensure st n = st.pos + n <= st.len || (refill st st.pos && ensure st n)

(* Deepest nesting of arrays and objects a cursor accepts.  The repo
   writes at most 4 levels; the bound keeps the parser's recursion, and
   so its stack, small whatever a request body holds. *)
let max_depth = 512

(* [at st c]: the next character is [c].  Every caller has just skipped
   whitespace, which leaves a byte in the window unless the source has
   ended. *)
let at st c = st.pos < st.len && Bytes.unsafe_get st.src st.pos = c

let rec skip_ws st =
  let src = st.src in
  let i = ref st.pos in
  while
    !i < st.len
    && (match Bytes.unsafe_get src !i with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    incr i
  done;
  st.pos <- !i;
  if !i = st.len && refill st !i then skip_ws st

let expect st c =
  if at st c then st.pos <- st.pos + 1
  else fail st ("expected '" ^ Char.escaped c ^ "'")

let parse_literal st word value =
  let n = String.length word in
  let rec matches k =
    k = n || (Bytes.unsafe_get st.src (st.pos + k) = word.[k] && matches (k + 1))
  in
  if ensure st n && matches 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

(* The four hex digits of a \u escape at [st.pos], and nothing else:
   RFC 8259 has no sign, no [_] and no shorter form. *)
let hex4 st =
  if not (ensure st 4) then fail st "bad \\u escape";
  let code = ref 0 in
  for i = st.pos to st.pos + 3 do
    let d =
      match Bytes.unsafe_get st.src i with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    code := (!code lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !code

(* One escape sequence; [st.pos] is just past the backslash. *)
let parse_escape st buf =
  if not (ensure st 1) then fail st "bad escape";
  let simple c =
    Buffer.add_char buf c;
    st.pos <- st.pos + 1
  in
  match Bytes.unsafe_get st.src st.pos with
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
    let start = st.base + st.pos in
    let unpaired () = fail_at start "bad \\u escape" in
    let code = hex4 st in
    let code =
      if code >= 0xDC00 && code <= 0xDFFF then unpaired ()
      else if code < 0xD800 || code > 0xDBFF then code
      else if
        ensure st 2
        && Bytes.unsafe_get st.src st.pos = '\\'
        && Bytes.unsafe_get st.src (st.pos + 1) = 'u'
      then begin
        (* A high surrogate: the low half must follow at once. *)
        st.pos <- st.pos + 2;
        let low = hex4 st in
        if low < 0xDC00 || low > 0xDFFF then unpaired ();
        0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
      end
      else unpaired ()
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  | _ -> fail st "bad escape"

(* The index of the first '"' or '\\' in [src] at or after [i], or
   [len]. *)
let rec string_stop src len i =
  if i < len && (let c = Bytes.unsafe_get src i in c <> '"' && c <> '\\')
  then string_stop src len (i + 1)
  else i

(* A string that ends in the window with no escapes is one sub-string
   of it; otherwise the runs between escapes and refills are copied
   whole into a buffer. *)
let parse_string_raw st =
  expect st '"';
  let start = st.pos in
  let i = string_stop st.src st.len start in
  if i < st.len && Bytes.unsafe_get st.src i = '"' then begin
    st.pos <- i + 1;
    Bytes.sub_string st.src start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    let rec go from =
      let i = string_stop st.src st.len from in
      Buffer.add_subbytes buf st.src from (i - from);
      st.pos <- i;
      if i >= st.len then
        if refill st i then go st.pos else fail st "unterminated string"
      else if Bytes.unsafe_get st.src i = '"' then st.pos <- i + 1
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

let is_digit c = c >= '0' && c <= '9'

(* The index just past the run of number characters at [i]. *)
let rec token_end src len i =
  if i < len && is_num_char (Bytes.unsafe_get src i) then token_end src len (i + 1)
  else i

(* The token is the longest run of number characters, read by
   [float_of_string_opt]; that fixes which tokens are accepted
   ([+1], [.5] and [1.] among them) and the bits each gives.  The token
   is whole in the window. *)
let parse_number_token st =
  let start = st.pos in
  let i = token_end st.src st.len start in
  st.pos <- i;
  if i = start then fail st "expected number";
  match float_of_string_opt (Bytes.sub_string st.src start (i - start)) with
  | Some f -> f
  | None -> fail st "malformed number"

(* Up to 18 significant digits fit an int exactly (10^18 < 2^62). *)
let max_sig_digits = 18

(* Relative bound on the error of the double-double product below,
   with room to spare over the 2^-96 ALGORITHMS §8 derives. *)
let product_margin = 0x1p-90

(* A token -?d+(.d+)?([eE][+-]?d+)? with at most [max_sig_digits]
   significant digits at [src.[pos]], read in place into [dst.(k)]:
   returns the index just past it.  Returns -1, leaving [dst] alone,
   when the token has another form or the result is not proved equal to
   [float_of_string_opt]'s; see [read_number_into].  [len] ends the
   bytes it may read.  Storing into a float array, not returning the
   float, keeps it unboxed. *)
let fast_number src pos len dst k =
  let i = ref pos in
  let neg = !i < len && Bytes.unsafe_get src !i = '-' in
  if neg then incr i;
  (* Significant digits accumulate in [m] (leading zeros skipped); each
     fraction digit lowers the decimal exponent. *)
  let m = ref 0 and nd = ref 0 and dexp = ref 0 and ok = ref true in
  let int_start = !i in
  while !i < len && is_digit (Bytes.unsafe_get src !i) do
    let d = Char.code (Bytes.unsafe_get src !i) - 48 in
    if !m > 0 || d > 0 then begin
      if !nd < max_sig_digits then m := (!m * 10) + d else ok := false;
      incr nd
    end;
    incr i
  done;
  if !i = int_start then ok := false;
  if !ok && !i < len && Bytes.unsafe_get src !i = '.' then begin
    incr i;
    let frac_start = !i in
    while !i < len && is_digit (Bytes.unsafe_get src !i) do
      let d = Char.code (Bytes.unsafe_get src !i) - 48 in
      if !m > 0 || d > 0 then begin
        if !nd < max_sig_digits then m := (!m * 10) + d else ok := false;
        incr nd
      end;
      decr dexp;
      incr i
    done;
    if !i = frac_start then ok := false
  end;
  if !ok && !i < len
     && (let c = Bytes.unsafe_get src !i in c = 'e' || c = 'E')
  then begin
    incr i;
    let eneg = !i < len && Bytes.unsafe_get src !i = '-' in
    if !i < len && (eneg || Bytes.unsafe_get src !i = '+') then incr i;
    let exp_start = !i and ex = ref 0 in
    while !i < len && is_digit (Bytes.unsafe_get src !i) do
      if !ex < 100_000 then
        ex := (!ex * 10) + Char.code (Bytes.unsafe_get src !i) - 48;
      incr i
    done;
    if !i = exp_start || !ex >= 100_000 then ok := false;
    dexp := if eneg then !dexp - !ex else !dexp + !ex
  end;
  if (not !ok) || (!i < len && is_num_char (Bytes.unsafe_get src !i)) then -1
  else begin
    let m = !m and e10 = !dexp in
    let v =
      if m = 0 then 0.0
      else if m < 1 lsl 53 && e10 >= -22 && e10 <= 22 then
        (* Clinger's exact case: both operands are exact floats, so the
           one rounding IEEE arithmetic does is the correct one. *)
        if e10 >= 0 then Float.of_int m *. p10_hi e10
        else Float.of_int m /. p10_hi (-e10)
      else if e10 + !nd - 1 < -270 || e10 + !nd > 290 then Float.nan
      else begin
        (* m·10^e10 = hi + lo, then round: hi is the nearest float unless
           |lo| is within the product's error of half the gap to hi's
           neighbour on lo's side. *)
        let mh = Float.of_int m in
        let ml = Float.of_int (m - Float.to_int mh) in
        let th = p10_hi e10 and tl = p10_lo e10 in
        let p = mh *. th in
        let s = Float.fma mh th (-.p) +. ((mh *. tl) +. (ml *. th)) in
        let hi = p +. s in
        let lo = s -. (hi -. p) in
        let bits = Int64.bits_of_float hi in
        let half =
          Int64.float_of_bits
            (Int64.shift_left (Int64.sub (Int64.shift_right_logical bits 52) 53L) 52)
        in
        let half =
          if lo < 0.0 && Int64.equal (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) 0L
          then half *. 0.5
          else half
        in
        if Float.abs (Float.abs lo -. half) <= hi *. product_margin then
          Float.nan
        else hi
      end
    in
    if Float.is_nan v then -1
    else begin
      Array.unsafe_set dst k (if neg then -.v else v);
      !i
    end
  end

(* Refills until the number token at [pos] ends inside the window or
   the source ends, scanning on from [from]: false when the token
   fills the whole window and goes on. *)
let rec complete_token st from =
  let i = token_end st.src st.len from in
  if i < st.len || st.ended then true
  else if st.pos = 0 && st.len = Bytes.length st.src then false
  else begin
    let scanned = i - st.pos in
    ignore (refill st st.pos);
    complete_token st (st.pos + scanned)
  end

(* A number token longer than the window: its bytes are gathered and
   read as a string's cursor reads them. *)
let spilled_number st dst k =
  let start = st.base + st.pos in
  let b = Buffer.create 256 in
  let rec gather () =
    let i = token_end st.src st.len st.pos in
    Buffer.add_subbytes b st.src st.pos (i - st.pos);
    st.pos <- i;
    if i = st.len && refill st i then gather ()
  in
  gather ();
  let token = Buffer.contents b in
  let n = String.length token in
  if fast_number (Bytes.unsafe_of_string token) 0 n dst k <> n then
    match float_of_string_opt token with
    | Some f -> dst.(k) <- f
    | None -> fail_at (start + n) "malformed number"

(* --- cursor ------------------------------------------------------------------ *)

(* The one grammar: [peek], [start], [more], [key] and
   [read_number_into] read every value, whether [read_value] (and so
   [of_string]) builds a tree of it or a decoder reads it through
   [read_array] and [read_object] without one.  So both give the same
   messages at the same positions, and the same depth bound holds. *)

let peek st =
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  match Bytes.unsafe_get st.src st.pos with
  | 'n' -> `Null
  | 't' | 'f' -> `Bool
  | '"' -> `String
  | '[' -> `List
  | '{' -> `Obj
  | _ -> `Number

(* Only blanks are left: JSON's whitespace and the form feed, the bytes
   [String.trim] drops.  A form feed is no JSON whitespace, so when
   anything else follows it the value's parse would stop at it with
   "expected number"; that error is raised here, at its position. *)
let blank st =
  skip_ws st;
  if st.pos >= st.len then true
  else if Bytes.unsafe_get st.src st.pos <> '\012' then false
  else begin
    let at = st.base + st.pos in
    let rec rest () =
      while
        st.pos < st.len
        && (match Bytes.unsafe_get st.src st.pos with
            | ' ' | '\t' | '\n' | '\r' | '\012' -> true
            | _ -> false)
      do
        st.pos <- st.pos + 1
      done;
      if st.pos < st.len then fail_at at "expected number"
      else if refill st st.pos then rest ()
      else true
    in
    rest ()
  end

(* Steps into the array or object at the cursor: true when an element
   follows, false when it closes at once (it is then left). *)
let start st opening closing =
  skip_ws st;
  if not (at st opening) then
    if st.pos >= st.len then fail st "unexpected end of input"
    else fail st ("expected '" ^ Char.escaped opening ^ "'");
  if st.depth = max_depth then
    fail st ("nesting deeper than " ^ string_of_int max_depth);
  st.pos <- st.pos + 1;
  st.depth <- st.depth + 1;
  skip_ws st;
  if at st closing then begin
    st.pos <- st.pos + 1;
    st.depth <- st.depth - 1;
    false
  end
  else true

(* After an element: true when another follows, false when the
   container closes (it is then left). *)
let more st closing =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    true
  end
  else begin
    expect st closing;
    st.depth <- st.depth - 1;
    false
  end

(* A field's key and its colon. *)
let key st =
  skip_ws st;
  let k = parse_string_raw st in
  skip_ws st;
  expect st ':';
  k

let read_array st element =
  if start st '[' ']' then begin
    element ();
    while more st ']' do
      element ()
    done
  end

let read_object st field =
  if start st '{' '}' then begin
    field (key st);
    while more st '}' do
      field (key st)
    done
  end

(* The fast reader when it can decide, [float_of_string_opt] on the
   token otherwise: the same accepted tokens and the same bits.  The
   token starts at [st.pos]; the fast reader's answer stands when it
   stopped inside the window, or at the end of the source.  Otherwise
   the token is first made whole in the window, or gathered when it is
   longer. *)
let number_at st dst k =
  let i = fast_number st.src st.pos st.len dst k in
  if i >= 0 && (i < st.len || st.ended) then st.pos <- i
  else if st.ended then dst.(k) <- parse_number_token st
  else if complete_token st st.pos then begin
    let i = fast_number st.src st.pos st.len dst k in
    if i >= 0 then st.pos <- i else dst.(k) <- parse_number_token st
  end
  else spilled_number st dst k

let read_number_into st dst k =
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  number_at st dst k

let rec read_value st =
  match peek st with
  | `Null -> parse_literal st "null" Null
  | `Bool ->
    if at st 't' then parse_literal st "true" (Bool true)
    else parse_literal st "false" (Bool false)
  | `String -> String (parse_string_raw st)
  | `Number ->
    number_at st st.num 0;
    Number (Array.unsafe_get st.num 0)
  | `List ->
    (* [read_array]'s steps, without a closure per container. *)
    let items = ref [] in
    if start st '[' ']' then begin
      items := [ read_value st ];
      while more st ']' do
        items := read_value st :: !items
      done
    end;
    List (List.rev !items)
  | `Obj ->
    let fields = ref [] in
    if start st '{' '}' then begin
      let k = key st in
      fields := [ (k, read_value st) ];
      while more st '}' do
        let k = key st in
        fields := (k, read_value st) :: !fields
      done
    end;
    Obj (List.rev !fields)

let finish st =
  skip_ws st;
  if st.pos <> st.len then fail st "trailing content"

let of_string src =
  let st = cursor src in
  let v = read_value st in
  finish st;
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

(* Beyond 2^53 a float no longer pins one integer, and [int_of_float]
   of one beyond the native range is unspecified (1e19 gives 0 on
   x86-64). *)
let to_int j =
  let f = to_float j in
  if not (Float.is_integer f) then invalid_arg "Json.to_int: not an integer"
  else if Float.abs f > 0x1p53 then
    invalid_arg "Json.to_int: integer out of range (|x| > 2^53)"
  else int_of_float f

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
