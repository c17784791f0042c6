(* xoshiro256++ with the four 64-bit state words stored as raw bit
   patterns inside an unboxed [float array]: a mutable [int64] record
   field boxes on every write (and every read of a boxed field allocates
   again when the value flows into [Int64] arithmetic), which made the
   generator the dominant allocator in sampling-heavy benchmarks.
   [Int64.bits_of_float] / [float_of_bits] are compiler primitives that
   reinterpret the payload, so the stream is bit-for-bit the same as the
   record-based implementation — only the state storage changed. *)
type t = float array

let get_s t i = Int64.bits_of_float (Array.unsafe_get t i)

let set_s t i v = Array.unsafe_set t i (Int64.float_of_bits v)

(* splitmix64: used only to expand the seed into the xoshiro state. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let from_splitmix state =
  let t = Array.make 4 0.0 in
  set_s t 0 (splitmix64_next state);
  set_s t 1 (splitmix64_next state);
  set_s t 2 (splitmix64_next state);
  set_s t 3 (splitmix64_next state);
  t

let create seed = from_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let uint64 t =
  let open Int64 in
  let s0 = get_s t 0 and s1 = get_s t 1 in
  let s2 = get_s t 2 and s3 = get_s t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set_s t 0 s0;
  set_s t 1 s1;
  set_s t 2 s2;
  set_s t 3 s3;
  result

let split t = from_splitmix (ref (uint64 t))

let float t =
  (* Top 53 bits scaled to [0,1). *)
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* Polar Box–Muller (Marsaglia), one variate per accepted pair: the
   partner is discarded, so each variate runs a fresh rejection loop and
   a stream's position depends only on how many variates were drawn.
   The xoshiro step of [uint64] and the scaling of [float] are written
   out on local refs, which the native compiler keeps as unboxed
   registers; calling [float] per uniform returns a boxed float built
   from a boxed [int64], about 14 words per variate.  The arithmetic is
   the same, so the stream is too. *)
let fill_normal t (dst : float array) ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length dst - len then
    invalid_arg "Rng.fill_normal: range out of bounds";
  let s0 = ref (get_s t 0) and s1 = ref (get_s t 1) in
  let s2 = ref (get_s t 2) and s3 = ref (get_s t 3) in
  let u = ref 0.0 and have_u = ref false in
  let i = ref pos and stop = pos + len in
  while !i < stop do
    let result = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
    let tmp = Int64.shift_left !s1 17 in
    s2 := Int64.logxor !s2 !s0;
    s3 := Int64.logxor !s3 !s1;
    s1 := Int64.logxor !s1 !s2;
    s0 := Int64.logxor !s0 !s3;
    s2 := Int64.logxor !s2 tmp;
    s3 := rotl !s3 45;
    let x =
      (2.0 *. (Int64.to_float (Int64.shift_right_logical result 11) *. 0x1.0p-53))
      -. 1.0
    in
    if not !have_u then begin
      u := x;
      have_u := true
    end
    else begin
      have_u := false;
      let s = (!u *. !u) +. (x *. x) in
      if not (s >= 1.0 || s = 0.0) then begin
        Array.unsafe_set dst !i (!u *. sqrt (-2.0 *. log s /. s));
        incr i
      end
    end
  done;
  set_s t 0 !s0;
  set_s t 1 !s1;
  set_s t 2 !s2;
  set_s t 3 !s3

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (uint64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L
    then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (uint64 t) 1L = 1L
