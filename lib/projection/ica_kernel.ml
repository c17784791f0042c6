open Sider_linalg

external simd_available_stub : unit -> bool = "sider_ica_simd_available"
[@@noalloc]

external sweep_stub :
  float array -> float array -> float array -> float array ->
  float array -> int -> int -> int -> int -> unit
  = "sider_ica_sweep_simd_bc" "sider_ica_sweep_simd"
[@@noalloc]

let simd_available =
  let probed = lazy (simd_available_stub ()) in
  fun () -> Lazy.force probed

(* Set only by [with_portable], for the span of its callback. *)
let pinned = ref false

let with_portable f =
  let saved = !pinned in
  pinned := true;
  Fun.protect ~finally:(fun () -> pinned := saved) f

type path =
  | Portable of { z : Mat.t; g : Mat.t }
      (* z, then the n × m scores and tanh in place *)
  | Simd of {
      mpad : int;
      zpad : float array;   (* n × mpad: z, its columns zero-padded *)
      wt : float array;     (* m × mpad: wt.(f*mpad + k) = w.(k,f) *)
      g : float array;      (* the stubs' row block of scores and g *)
      parts : (float array * float array) array;
      (* One (gᵀz, E[g']) partial per chunk, m × mpad and mpad: the
         stubs overwrite them on every sweep. *)
    }

type t = { n : int; m : int; path : path }

(* Rows per SIMD chunk.  Each chunk sums into a partial of its own and
   the partials add up over [combine]'s tree, so the bits depend on n
   alone; Table I and every ICA view are pinned to this grouping. *)
let simd_chunk = 256

(* Rows per block of the stubs' g scratch: 32 up to 64 padded
   components, then as many as fit 2048 floats (16 KiB, so g stays in
   L1 beside the block's z rows), at least one. *)
let block_rows mpad = Stdlib.max 1 (Stdlib.min 32 (2048 / mpad))

(* z is written once, by [fill], straight into the layout its path
   sweeps. *)
let create ~n ~m fill =
  if (not !pinned) && simd_available () && m >= 1 && n >= 1 then begin
    let mpad = 4 * ((m + 3) / 4) in
    let zpad = Array.make (n * mpad) 0.0 in
    fill zpad mpad;
    let parts =
      Array.init ((n + simd_chunk - 1) / simd_chunk) (fun _ ->
          (Array.make (m * mpad) 0.0, Array.make mpad 0.0))
    in
    { n; m;
      path =
        Simd { mpad; zpad; wt = Array.make (m * mpad) 0.0;
               g = Array.create_float (block_rows mpad * mpad); parts } }
  end
  else begin
    let z = Mat.create n m in
    fill z.Mat.a m;
    { n; m; path = Portable { z; g = Mat.create n m } }
  end

(* The three-pass pipeline on Mat's kernels: scores into [g], tanh over
   them in place, then gᵀz.  The E[g'] sums run in increasing row
   order. *)
let sweep_portable t ~w ~gz ~(eg : Vec.t) ~z ~g =
  Mat.matmul_nt_into ~dst:g z w;
  Mat.tanh_into ~dst:g g;
  Mat.matmul_tn_into ~dst:gz g z;
  let m = t.m and ga = g.Mat.a in
  Array.fill eg 0 m 0.0;
  for i = 0 to t.n - 1 do
    let off = i * m in
    for k = 0 to m - 1 do
      let v = Array.unsafe_get ga (off + k) in
      Array.unsafe_set eg k (Array.unsafe_get eg k +. (1.0 -. (v *. v)))
    done
  done

(* Adds the partials of chunks [lo, hi) into chunk [lo]'s over an
   ordered binary tree, split left-heavy, entry by entry. *)
let rec combine parts lo hi =
  if hi - lo > 1 then begin
    let mid = lo + ((hi - lo + 1) / 2) in
    combine parts lo mid;
    combine parts mid hi;
    let g1, e1 = parts.(lo) and g2, e2 = parts.(mid) in
    for i = 0 to Array.length g1 - 1 do
      Array.unsafe_set g1 i (Array.unsafe_get g1 i +. Array.unsafe_get g2 i)
    done;
    for i = 0 to Array.length e1 - 1 do
      Array.unsafe_set e1 i (Array.unsafe_get e1 i +. Array.unsafe_get e2 i)
    done
  end

let sweep_simd t ~w ~gz ~(eg : Vec.t) ~mpad ~zpad ~wt ~g ~parts =
  let m = t.m in
  let wa = w.Mat.a in
  for f = 0 to m - 1 do
    let off = f * mpad in
    for k = 0 to m - 1 do
      Array.unsafe_set wt (off + k) (Array.unsafe_get wa ((k * m) + f))
    done
  done;
  let chunks = Array.length parts in
  for c = 0 to chunks - 1 do
    let gzp, egp = parts.(c) in
    let lo = c * simd_chunk in
    sweep_stub zpad wt g gzp egp lo (Stdlib.min t.n (lo + simd_chunk)) m mpad
  done;
  combine parts 0 chunks;
  let gzp, egp = parts.(0) in
  let gza = gz.Mat.a in
  for k = 0 to m - 1 do
    Array.blit gzp (k * mpad) gza (k * m) m
  done;
  Array.blit egp 0 eg 0 m

let sweep t ~w ~gz ~eg =
  let wr, wc = Mat.dims w in
  if wr <> t.m || wc <> t.m then
    invalid_arg "Ica_kernel.sweep: w dims" [@sider.allow "error-discipline"];
  let gr, gc = Mat.dims gz in
  if gr <> t.m || gc <> t.m || Array.length eg < t.m then
    invalid_arg "Ica_kernel.sweep: output dims" [@sider.allow "error-discipline"];
  match t.path with
  | Portable { z; g } -> sweep_portable t ~w ~gz ~eg ~z ~g
  | Simd { mpad; zpad; wt; g; parts } ->
    sweep_simd t ~w ~gz ~eg ~mpad ~zpad ~wt ~g ~parts
