(* Linter escape, audited file-wide: raises are [Invalid_argument]
   caller-side precondition failures with test-locked messages, and
   lib/robust depends on linalg, so [Sider_error] would be a cycle. *)
[@@@sider.allow "error-discipline"]

type t = float array

let create n = Array.make n 0.0

let copy = Array.copy

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = create n in
  v.(i) <- 1.0;
  v

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let scale s a = Array.map (fun x -> s *. x) a

let axpy a x y =
  check_dims "axpy" x y;
  let n = Array.length x in
  let i = ref 0 in
  (* Unrolled by four; each slot is read and written once, so the result
     is bit-identical to the plain loop. *)
  while !i + 3 < n do
    let i0 = !i in
    Array.unsafe_set y i0
      (Array.unsafe_get y i0 +. (a *. Array.unsafe_get x i0));
    Array.unsafe_set y (i0 + 1)
      (Array.unsafe_get y (i0 + 1) +. (a *. Array.unsafe_get x (i0 + 1)));
    Array.unsafe_set y (i0 + 2)
      (Array.unsafe_get y (i0 + 2) +. (a *. Array.unsafe_get x (i0 + 2)));
    Array.unsafe_set y (i0 + 3)
      (Array.unsafe_get y (i0 + 3) +. (a *. Array.unsafe_get x (i0 + 3)));
    i := i0 + 4
  done;
  while !i < n do
    Array.unsafe_set y !i
      (Array.unsafe_get y !i +. (a *. Array.unsafe_get x !i));
    incr i
  done

let dot a b =
  check_dims "dot" a b;
  let n = Array.length a in
  let acc = ref 0.0 in
  let i = ref 0 in
  (* Single accumulator, strictly increasing index: the addition order is
     that of the plain loop, so the unrolling is bit-neutral. *)
  while !i + 3 < n do
    let i0 = !i in
    acc := !acc +. (Array.unsafe_get a i0 *. Array.unsafe_get b i0);
    acc := !acc +. (Array.unsafe_get a (i0 + 1) *. Array.unsafe_get b (i0 + 1));
    acc := !acc +. (Array.unsafe_get a (i0 + 2) *. Array.unsafe_get b (i0 + 2));
    acc := !acc +. (Array.unsafe_get a (i0 + 3) *. Array.unsafe_get b (i0 + 3));
    i := i0 + 4
  done;
  while !i < n do
    acc := !acc +. (Array.unsafe_get a !i *. Array.unsafe_get b !i);
    incr i
  done;
  !acc

let norm2 a = sqrt (dot a a)

let dist2 a b =
  check_dims "dist2" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let normalize a =
  let n = norm2 a in
  if Float.equal n 0.0 then copy a else scale (1.0 /. n) a

(* Loops, not [Array.fold_left] or [Array.iter] over a captured ref,
   which box a float per element; the order of the additions is theirs. *)
let sum a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Array.unsafe_get a i
  done;
  !acc

let mean a =
  if Array.length a = 0 then invalid_arg "Vec.mean: empty vector";
  sum a /. float_of_int (Array.length a)

let variance ?mean:m a =
  if Array.length a = 0 then invalid_arg "Vec.variance: empty vector";
  let mu = match m with Some m -> m | None -> mean a in
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = Array.unsafe_get a i -. mu in
    acc := !acc +. (d *. d)
  done;
  !acc /. float_of_int (Array.length a)

let min a = Array.fold_left Float.min a.(0) a

let max a = Array.fold_left Float.max a.(0) a
