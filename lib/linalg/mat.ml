(* Linter escapes, audited file-wide:
   - error-discipline: every raise here is an [Invalid_argument] on a
     caller-side precondition (shape/bounds mismatch), not a data-
     dependent numerical failure.  lib/robust depends on this library,
     so structured [Sider_error] values cannot be raised from linalg
     without a dependency cycle; the exact message strings are locked
     by the golden tests.
   - float-equality: every float [=]/[<>] is an exact-zero test in a
     dense kernel — sparse-skip guards that must compare bit-exactly
     (skipping a zero entry is not FP-neutral under NaN/Inf inputs, see
     [matmul]) on paths too hot for [Float.equal]'s C call. *)
[@@@sider.allow "error-discipline, float-equality"]

type t = { rows : int; cols : int; a : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; a = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.a.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_array rows cols a =
  if rows < 0 || cols < 0 || Array.length a <> rows * cols then
    invalid_arg "Mat.of_array: length is not rows * cols";
  { rows; cols; a }

let of_arrays rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows;
    init r c (fun i j -> rows.(i).(j))
  end

let copy m = { m with a = Array.copy m.a }

let copy_into ~dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Mat.copy_into: shape mismatch";
  Array.blit src.a 0 dst.a 0 (Array.length src.a)

let dims m = (m.rows, m.cols)

let get m i j = m.a.((i * m.cols) + j)

let set m i j x = m.a.((i * m.cols) + j) <- x

let row m i = Array.sub m.a (i * m.cols) m.cols

(* Dot of [a.(aoff..aoff+len-1)] with [b.(boff..boff+len-1)], unrolled by
   four.  One accumulator, strictly increasing index — the addition order
   is exactly that of the plain loop, so results are bit-identical; the
   unrolling only amortizes the loop-bound checks (~20% on the d²-sized
   kernels that dominate whitening and the solver).  Inlined, so that
   the row loops of [mv_into] and [quad_form] box no float per row. *)
let[@inline] dot_range (a : float array) aoff (b : float array) boff len =
  let acc = ref 0.0 in
  let j = ref 0 in
  while !j + 3 < len do
    let j0 = !j in
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0) *. Array.unsafe_get b (boff + j0));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 1)
               *. Array.unsafe_get b (boff + j0 + 1));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 2)
               *. Array.unsafe_get b (boff + j0 + 2));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 3)
               *. Array.unsafe_get b (boff + j0 + 3));
    j := j0 + 4
  done;
  while !j < len do
    acc := !acc
           +. (Array.unsafe_get a (aoff + !j) *. Array.unsafe_get b (boff + !j));
    incr j
  done;
  !acc

(* [dst.(doff+k) <- dst.(doff+k) +. s *. src.(soff+k)] for [k < len],
   unrolled by four.  Each destination slot is read and written exactly
   once per call, so the accumulation order across calls is unchanged. *)
let[@inline] axpy_range (dst : float array) doff s (src : float array) soff len =
  let k = ref 0 in
  while !k + 3 < len do
    let k0 = !k in
    Array.unsafe_set dst (doff + k0)
      (Array.unsafe_get dst (doff + k0)
       +. (s *. Array.unsafe_get src (soff + k0)));
    Array.unsafe_set dst (doff + k0 + 1)
      (Array.unsafe_get dst (doff + k0 + 1)
       +. (s *. Array.unsafe_get src (soff + k0 + 1)));
    Array.unsafe_set dst (doff + k0 + 2)
      (Array.unsafe_get dst (doff + k0 + 2)
       +. (s *. Array.unsafe_get src (soff + k0 + 2)));
    Array.unsafe_set dst (doff + k0 + 3)
      (Array.unsafe_get dst (doff + k0 + 3)
       +. (s *. Array.unsafe_get src (soff + k0 + 3)));
    k := k0 + 4
  done;
  while !k < len do
    Array.unsafe_set dst (doff + !k)
      (Array.unsafe_get dst (doff + !k)
       +. (s *. Array.unsafe_get src (soff + !k)));
    incr k
  done

let row_dot m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.row_dot: bad length";
  dot_range m.a (i * m.cols) v 0 m.cols

let col m j = Array.init m.rows (fun i -> m.a.((i * m.cols) + j))

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: bad length";
  Array.blit v 0 m.a (i * m.cols) m.cols

let transpose m =
  let t = create m.cols m.rows in
  let ma = m.a and ta = t.a in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set ta ((j * m.rows) + i) (Array.unsafe_get ma (off + j))
    done
  done;
  t

let check_same name x y =
  if x.rows <> y.rows || x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)"
                   name x.rows x.cols y.rows y.cols)

let check_dst name dst rows cols =
  if dst.rows <> rows || dst.cols <> cols then
    invalid_arg (Printf.sprintf "Mat.%s: dst is %dx%d, need %dx%d"
                   name dst.rows dst.cols rows cols)

let sub_into ~dst x y =
  check_same "sub_into" x y;
  check_dst "sub_into" dst x.rows x.cols;
  let xa = x.a and ya = y.a and za = dst.a in
  for i = 0 to Array.length xa - 1 do
    Array.unsafe_set za i (Array.unsafe_get xa i -. Array.unsafe_get ya i)
  done

let sub x y =
  check_same "sub" x y;
  let z = create x.rows x.cols in
  sub_into ~dst:z x y;
  z

(* k-blocking keeps a bounded panel of [y] rows hot while it is streamed
   against every row of [x]; block order never changes the per-entry
   accumulation order (increasing [k]), so results are identical to the
   unblocked loop. *)
let kblock = 64

let matmul_into ~dst x y =
  if x.cols <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_into: inner dims (%dx%d)*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_into" dst x.rows y.cols;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let xc = x.cols and yc = y.cols in
  (* The inner [j] loop is contiguous in both [y] and [dst]; indices are
     in range by construction, so unchecked access is safe (no flambda in
     this toolchain, so the bounds checks would not be elided).  The
     [xik <> 0.0] skip must be kept for exact reproducibility: skipping a
     zero row-entry is not FP-neutral when [y] holds NaN or infinities. *)
  Array.fill za 0 (x.rows * yc) 0.0;
  let kb = ref 0 in
  while !kb < xc do
    let khi = Stdlib.min xc (!kb + kblock) in
    for i = 0 to x.rows - 1 do
      let xoff = i * xc and zoff = i * yc in
      for k = !kb to khi - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then axpy_range za zoff xik ya (k * yc) yc
      done
    done;
    kb := khi
  done

(* Each row centred as it is read: the term [x_ik − mean_k] is the
   float a centred copy of [x] holds, and each entry sums in increasing
   [k] with [matmul_into]'s zero skip, so the floats are those [matmul]
   gives that copy. *)
let matmul_centred_into ~dst ~stride x mean y =
  if x.cols <> y.rows || Array.length mean <> x.cols || stride < y.cols
     || (x.rows > 0 && Array.length dst < ((x.rows - 1) * stride) + y.cols)
  then invalid_arg "Mat.matmul_centred_into: dimension mismatch";
  if Array.length dst > 0 && (dst == x.a || dst == y.a) then
    invalid_arg "Mat.matmul_centred_into: dst aliases an input";
  let xa = x.a and ya = y.a in
  let xc = x.cols and yc = y.cols in
  for i = 0 to x.rows - 1 do
    let xoff = i * xc and zoff = i * stride in
    Array.fill dst zoff yc 0.0;
    for k = 0 to xc - 1 do
      let xik = Array.unsafe_get xa (xoff + k) -. Array.unsafe_get mean k in
      if xik <> 0.0 then axpy_range dst zoff xik ya (k * yc) yc
    done
  done

let matmul x y =
  if x.cols <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dims (%dx%d)*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  let z = create x.rows y.cols in
  matmul_into ~dst:z x y;
  z

(* [x yᵀ] without forming the transpose: entry [(i, j)] is the dot product
   of row [i] of [x] with row [j] of [y], accumulated in increasing [k]
   with the same zero-skip as {!matmul_into} — bit-identical to
   [matmul x (transpose y)]. *)
let matmul_nt_into ~dst x y =
  if x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.matmul_nt_into: inner dims (%dx%d)*(%dx%d)ᵀ"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_nt_into" dst x.rows y.rows;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_nt_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let xc = x.cols and yr = y.rows in
  (* Register blocking: four output entries per pass over the [x] row, so
     the row is streamed once per four [y] rows instead of once per one.
     Each accumulator still sums in increasing [k] with the per-[xik]
     zero-skip, so every entry is bit-identical to the unblocked loop. *)
  for i = 0 to x.rows - 1 do
    let xoff = i * xc and zoff = i * yr in
    let j = ref 0 in
    while !j + 3 < yr do
      let j0 = !j in
      let y0 = j0 * xc
      and y1 = (j0 + 1) * xc
      and y2 = (j0 + 2) * xc
      and y3 = (j0 + 3) * xc in
      let a0 = ref 0.0 and a1 = ref 0.0 in
      let a2 = ref 0.0 and a3 = ref 0.0 in
      for k = 0 to xc - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then begin
          a0 := !a0 +. (xik *. Array.unsafe_get ya (y0 + k));
          a1 := !a1 +. (xik *. Array.unsafe_get ya (y1 + k));
          a2 := !a2 +. (xik *. Array.unsafe_get ya (y2 + k));
          a3 := !a3 +. (xik *. Array.unsafe_get ya (y3 + k))
        end
      done;
      Array.unsafe_set za (zoff + j0) !a0;
      Array.unsafe_set za (zoff + j0 + 1) !a1;
      Array.unsafe_set za (zoff + j0 + 2) !a2;
      Array.unsafe_set za (zoff + j0 + 3) !a3;
      j := j0 + 4
    done;
    while !j < yr do
      let yoff = !j * xc in
      let acc = ref 0.0 in
      for k = 0 to xc - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then
          acc := !acc +. (xik *. Array.unsafe_get ya (yoff + k))
      done;
      Array.unsafe_set za (zoff + !j) !acc;
      incr j
    done
  done

let matmul_nt x y =
  if x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.matmul_nt: inner dims (%dx%d)*(%dx%d)ᵀ"
                   x.rows x.cols y.rows y.cols);
  let z = create x.rows y.rows in
  matmul_nt_into ~dst:z x y;
  z

(* [xᵀ y] without forming the transpose: output row [j] depends only on
   column [j] of [x]; each entry sums over the data rows in increasing
   [i] with the usual zero-skip — bit-identical to
   [matmul (transpose x) y]. *)
let matmul_tn_into ~dst x y =
  if x.rows <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_tn_into: inner dims (%dx%d)ᵀ*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_tn_into" dst x.cols y.cols;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_tn_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let rows = x.rows and xc = x.cols and yc = y.cols in
  (* i-outer: every input row is read once, contiguously, while each
     output entry still accumulates in increasing row order —
     bit-identical to the j-outer formulation but without the strided
     column walk over [x].  Output rows are register-blocked by four:
     when all four coefficients are non-zero (the dense common case) one
     pass over the [y] row feeds four accumulator rows; a zero in the
     block falls back to the per-row skipped axpy.  Each destination
     slot still sees exactly one read-modify-write per input row, in
     increasing [i], so the result is bit-identical either way. *)
  Array.fill za 0 (xc * yc) 0.0;
  for i = 0 to rows - 1 do
    let xoff = i * xc and yoff = i * yc in
    let j = ref 0 in
    while !j + 3 < xc do
      let j0 = !j in
      let x0 = Array.unsafe_get xa (xoff + j0)
      and x1 = Array.unsafe_get xa (xoff + j0 + 1)
      and x2 = Array.unsafe_get xa (xoff + j0 + 2)
      and x3 = Array.unsafe_get xa (xoff + j0 + 3) in
      if x0 <> 0.0 && x1 <> 0.0 && x2 <> 0.0 && x3 <> 0.0 then begin
        let d0 = j0 * yc
        and d1 = (j0 + 1) * yc
        and d2 = (j0 + 2) * yc
        and d3 = (j0 + 3) * yc in
        for c = 0 to yc - 1 do
          let yv = Array.unsafe_get ya (yoff + c) in
          Array.unsafe_set za (d0 + c)
            (Array.unsafe_get za (d0 + c) +. (x0 *. yv));
          Array.unsafe_set za (d1 + c)
            (Array.unsafe_get za (d1 + c) +. (x1 *. yv));
          Array.unsafe_set za (d2 + c)
            (Array.unsafe_get za (d2 + c) +. (x2 *. yv));
          Array.unsafe_set za (d3 + c)
            (Array.unsafe_get za (d3 + c) +. (x3 *. yv))
        done
      end
      else begin
        if x0 <> 0.0 then axpy_range za (j0 * yc) x0 ya yoff yc;
        if x1 <> 0.0 then axpy_range za ((j0 + 1) * yc) x1 ya yoff yc;
        if x2 <> 0.0 then axpy_range za ((j0 + 2) * yc) x2 ya yoff yc;
        if x3 <> 0.0 then axpy_range za ((j0 + 3) * yc) x3 ya yoff yc
      end;
      j := j0 + 4
    done;
    while !j < xc do
      let xij = Array.unsafe_get xa (xoff + !j) in
      if xij <> 0.0 then axpy_range za (!j * yc) xij ya yoff yc;
      incr j
    done
  done

let mv_into ~dst m v =
  if m.cols <> Array.length v then
    invalid_arg "Mat.mv_into: dimension mismatch";
  if Array.length dst <> m.rows then invalid_arg "Mat.mv_into: bad dst";
  if Array.length dst > 0 && dst == v then
    invalid_arg "Mat.mv_into: dst aliases the input";
  let ma = m.a in
  for i = 0 to m.rows - 1 do
    Array.unsafe_set dst i (dot_range ma (i * m.cols) v 0 m.cols)
  done

let mv m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mv: dimension mismatch";
  let dst = Array.make m.rows 0.0 in
  mv_into ~dst m v;
  dst

(* Allocation-free [vᵀ m v]: the inner loop reproduces one element of
   [mv m v] (increasing [j]), the outer one the [Vec.dot] fold
   (increasing [i]) — bit-identical to [Vec.dot v (mv m v)]. *)
let quad_form m v =
  if m.rows <> m.cols then invalid_arg "Mat.quad_form: not square";
  if m.cols <> Array.length v then
    invalid_arg "Mat.quad_form: dimension mismatch";
  let ma = m.a in
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let r = dot_range ma (i * m.cols) v 0 m.cols in
    acc := !acc +. (Array.unsafe_get v i *. r)
  done;
  !acc

let rank1_update m alpha v =
  if m.rows <> m.cols || m.rows <> Array.length v then
    invalid_arg "Mat.rank1_update: shape mismatch";
  let ma = m.a in
  for i = 0 to m.rows - 1 do
    let avi = alpha *. Array.unsafe_get v i in
    if avi <> 0.0 then begin
      let off = i * m.cols in
      for j = 0 to m.cols - 1 do
        Array.unsafe_set ma (off + j)
          (Array.unsafe_get ma (off + j) +. (avi *. Array.unsafe_get v j))
      done
    end
  done

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius m = sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 m.a)

(* Loops over the flat arrays: through [init]'s closure, or [get],
   every entry would be a boxed float. *)
let symmetrize m =
  if m.rows <> m.cols then invalid_arg "Mat.symmetrize: not square";
  let n = m.rows and ma = m.a in
  let dst = create n n in
  let za = dst.a in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set za ((i * n) + j)
        (0.5 *. (Array.unsafe_get ma ((i * n) + j)
                 +. Array.unsafe_get ma ((j * n) + i)))
    done
  done;
  dst

let is_symmetric ?(eps = 1e-9) m =
  m.rows = m.cols
  && (let n = m.rows and ma = m.a in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Float.abs (Array.unsafe_get ma ((i * n) + j)
                        -. Array.unsafe_get ma ((j * n) + i)) > eps
          then ok := false
        done
      done;
      !ok)

let map f m = { m with a = Array.map f m.a }

let tanh_into ~dst m =
  check_dst "tanh_into" dst m.rows m.cols;
  let ma = m.a and za = dst.a in
  (* Specialized so [tanh] is a direct (unboxed) call: a generic map
     through a closure boxes every argument and result, which roughly
     doubles the cost of FastICA's dominant kernel. *)
  for i = 0 to (m.rows * m.cols) - 1 do
    Array.unsafe_set za i (tanh (Array.unsafe_get ma i))
  done

let col_means m =
  if m.rows = 0 then invalid_arg "Mat.col_means: empty matrix";
  let means = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      means.(j) <- means.(j) +. m.a.(off + j)
    done
  done;
  let n = float_of_int m.rows in
  for j = 0 to m.cols - 1 do
    means.(j) <- means.(j) /. n
  done;
  means

let col_variances m =
  let means = col_means m in
  let vars = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      let d = m.a.(off + j) -. means.(j) in
      vars.(j) <- vars.(j) +. (d *. d)
    done
  done;
  let n = float_of_int m.rows in
  Array.map (fun s -> s /. n) vars

(* Accumulated a block of output rows at a time: row [j] of the
   covariance depends only on column [j] against every column, and each
   entry sums over the data rows in increasing [i] with the same
   zero-skip as the single-pass loop.  [rows] picks the data rows, in
   their order, by offset: the means are summed over them as
   [col_means] sums a matrix's rows, so a selection gives the floats of
   its copy without the copy. *)
let covariance ?rows:sel m =
  let rows = match sel with Some r -> Array.length r | None -> m.rows in
  if rows = 0 then invalid_arg "Mat.col_means: empty matrix";
  Option.iter
    (Array.iter (fun r ->
         if r < 0 || r >= m.rows then
           invalid_arg "Mat.covariance: row index out of range"))
    sel;
  let cols = m.cols in
  let off i = match sel with Some r -> r.(i) * cols | None -> i * cols in
  let ma = m.a in
  let means = Array.make cols 0.0 in
  for i = 0 to rows - 1 do
    let o = off i in
    for j = 0 to cols - 1 do
      means.(j) <- means.(j) +. ma.(o + j)
    done
  done;
  let fn = float_of_int rows in
  for j = 0 to cols - 1 do
    means.(j) <- means.(j) /. fn
  done;
  let cov = create cols cols in
  let cova = cov.a in
  (* Same i-outer trick as [matmul_tn_into]: stream the rows one by one,
     accumulating the upper triangle of the block; per-entry order stays
     increasing-i, so the result is bit-identical.  Each row is centred
     into a d-float scratch, entries [lo, cols) being all the block
     reads: the floats a centred copy would store, without an n×d copy.
     Every block centres its rows again, so blocks span 8 output rows:
     one row each would double the subtractions to one per product.
     The lower triangle is mirrored afterwards — exact because
     x·y = y·x in IEEE and both triangles would accumulate in the same
     row order. *)
  let x = Array.create_float cols in
  for b = 0 to ((cols + 7) / 8) - 1 do
    let lo = 8 * b in
    let hi = Stdlib.min cols (lo + 8) in
    for i = 0 to rows - 1 do
      let o = off i in
      for j = lo to cols - 1 do
        Array.unsafe_set x j
          (Array.unsafe_get ma (o + j) -. Array.unsafe_get means j)
      done;
      for j = lo to hi - 1 do
        let xj = Array.unsafe_get x j in
        if xj <> 0.0 then axpy_range cova ((j * cols) + j) xj x j (cols - j)
      done
    done
  done;
  for j = 1 to cols - 1 do
    for k = 0 to j - 1 do
      Array.unsafe_set cova ((j * cols) + k)
        (Array.unsafe_get cova ((k * cols) + j))
    done
  done;
  let s = 1.0 /. float_of_int rows in
  for i = 0 to (cols * cols) - 1 do
    Array.unsafe_set cova i (s *. Array.unsafe_get cova i)
  done;
  cov

let select_rows m idx =
  let s = create (Array.length idx) m.cols in
  Array.iteri (fun i r -> Array.blit m.a (r * m.cols) s.a (i * m.cols) m.cols) idx;
  s
