open Sider_linalg
module Par = Sider_par.Par

external simd_available_stub : unit -> bool = "sider_ica_simd_available"
[@@noalloc]

external sweep_stub :
  float array -> float array -> float array -> float array ->
  int -> int -> int -> int -> unit
  = "sider_ica_sweep_simd_bc" "sider_ica_sweep_simd"
[@@noalloc]

let simd_available =
  let probed = lazy (simd_available_stub ()) in
  fun () -> Lazy.force probed

(* The C stubs bound their stack scratch at this many components. *)
let max_simd_components = 64

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
      parts : (float array * float array) array;
      (* One (gᵀz, E[g']) partial per chunk, m × mpad and mpad: the
         stubs overwrite them on every sweep. *)
    }

type t = { n : int; m : int; path : path }

(* The SIMD row-block size: boundaries depend only on n, so per-chunk
   partials combine identically for every domain count. *)
let simd_chunk = 256

(* z is written once, by [fill], straight into the layout its path
   sweeps. *)
let create ~n ~m fill =
  if (not !pinned) && simd_available () && m >= 1
     && m <= max_simd_components && n >= 1
  then begin
    let mpad = 4 * ((m + 3) / 4) in
    let zpad = Array.make (n * mpad) 0.0 in
    fill zpad mpad;
    let parts =
      Array.init ((n + simd_chunk - 1) / simd_chunk) (fun _ ->
          (Array.make (m * mpad) 0.0, Array.make mpad 0.0))
    in
    { n; m;
      path = Simd { mpad; zpad; wt = Array.make (m * mpad) 0.0; parts } }
  end
  else begin
    let z = Mat.create n m in
    fill z.Mat.a m;
    { n; m; path = Portable { z; g = Mat.create n m } }
  end

(* The three-pass pipeline on Mat's kernels, each bit-identical for any
   domain count: scores into [g], tanh over them in place, then gᵀz.
   The E[g'] sums run serially in increasing row order. *)
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

let sweep_simd t ~w ~gz ~(eg : Vec.t) ~mpad ~zpad ~wt ~parts =
  let m = t.m in
  let wa = w.Mat.a in
  for f = 0 to m - 1 do
    let off = f * mpad in
    for k = 0 to m - 1 do
      Array.unsafe_set wt (off + k) (Array.unsafe_get wa ((k * m) + f))
    done
  done;
  let res =
    Par.parallel_reduce_chunks ~chunk:simd_chunk ~label:"ica.sweep" ~n:t.n
      ~part:(fun lo hi ->
        let part = parts.(lo / simd_chunk) in
        let gzp, egp = part in
        sweep_stub zpad wt gzp egp lo hi m mpad;
        part)
      ~combine:(fun ((g1, e1) as left) (g2, e2) ->
        (* Partials flow through the ordered tree once each, so summing
           into the left one is safe: the stubs overwrite it on the next
           sweep. *)
        for i = 0 to (m * mpad) - 1 do
          Array.unsafe_set g1 i
            (Array.unsafe_get g1 i +. Array.unsafe_get g2 i)
        done;
        for i = 0 to mpad - 1 do
          Array.unsafe_set e1 i
            (Array.unsafe_get e1 i +. Array.unsafe_get e2 i)
        done;
        left)
      ()
  in
  match res with
  | None ->
    Array.fill gz.Mat.a 0 (m * m) 0.0;
    Array.fill eg 0 m 0.0
  | Some (gzp, egp) ->
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
  | Simd { mpad; zpad; wt; parts } ->
    sweep_simd t ~w ~gz ~eg ~mpad ~zpad ~wt ~parts
