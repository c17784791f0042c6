(* The Sider_par domain pool: coverage and failure semantics of the
   fan-out primitives, and the bit-determinism guarantee — identical
   results for any domain count — on both the primitives and the full
   solver → whiten → PCA pipeline. *)

open Sider_linalg
open Sider_maxent
module Par = Sider_par.Par
open Test_helpers

(* Run [f] at [d] domains, restoring the previous pool size afterwards
   even if [f] raises. *)
let with_domains d f =
  let restore = Par.domain_count () in
  Par.set_domains d;
  Fun.protect ~finally:(fun () -> Par.set_domains restore) f

let bits = Int64.bits_of_float

let check_bits_vec msg (a : Vec.t) (b : Vec.t) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: element %d differs: %h vs %h" msg i x b.(i))
    a

let check_bits_mat msg (a : Mat.t) (b : Mat.t) =
  Alcotest.(check (pair int int)) (msg ^ ": dims") (Mat.dims a) (Mat.dims b);
  check_bits_vec msg a.Mat.a b.Mat.a

(* --- fan-out coverage ----------------------------------------------------- *)

let test_for_covers_all () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let n = 1000 in
          let hits = Array.make n 0 in
          Par.parallel_for ~min:1 ~n (fun i -> hits.(i) <- hits.(i) + 1);
          Array.iteri
            (fun i h ->
              if h <> 1 then
                Alcotest.failf "domains=%d: index %d ran %d times" d i h)
            hits))
    [ 1; 2; 4 ]

let test_for_chunks_partition () =
  with_domains 3 (fun () ->
      let n = 257 in
      let hits = Array.make n 0 in
      (* Bodies run on worker domains, and Alcotest's output is not
         domain-safe (concurrent checks corrupt its formatter), so the
         bounds are checked on this domain afterwards. *)
      let bad_bounds = Atomic.make false in
      Par.parallel_for_chunks ~min:1 ~chunk:10 ~n (fun lo hi ->
          if not (0 <= lo && lo < hi && hi <= n) then
            Atomic.set bad_bounds true;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      check_true "chunk bounds" (not (Atomic.get bad_bounds));
      check_true "every index covered once" (Array.for_all (( = ) 1) hits))

let test_empty_and_small () =
  with_domains 2 (fun () ->
      Par.parallel_for ~min:1 ~n:0 (fun _ -> Alcotest.fail "n=0 ran a body");
      Alcotest.(check (option int))
        "reduce over n=0 is None" None
        (Par.parallel_reduce_chunks ~min:1 ~n:0
           ~part:(fun _ _ -> 1)
           ~combine:( + ) ());
      Alcotest.(check int)
        "reduce over n=1"
        7
        (Par.parallel_reduce ~min:1 ~n:1 ~init:0
           ~step:(fun acc _ -> acc + 7)
           ~combine:( + ) ()))

(* --- determinism of the primitives ---------------------------------------- *)

(* A float reduction whose value depends on association: identical bits
   across domain counts proves the chunked tree is fixed. *)
let test_reduce_bits_stable () =
  let n = 10_000 in
  let term i = sin (float_of_int i) *. 1e-3 in
  let at d =
    with_domains d (fun () ->
        Par.parallel_reduce ~min:1 ~n ~init:0.0
          ~step:(fun acc i -> acc +. term i)
          ~combine:( +. ) ())
  in
  let r1 = at 1 in
  List.iter
    (fun d ->
      let rd = at d in
      if bits r1 <> bits rd then
        Alcotest.failf "reduce differs at domains=%d: %h vs %h" d r1 rd)
    [ 2; 3; 4 ]

let test_matmul_bits_stable () =
  let rng = Sider_rand.Rng.create 42 in
  let x = Sider_rand.Sampler.normal_mat rng 37 19 in
  let y = Sider_rand.Sampler.normal_mat rng 19 23 in
  let at d = with_domains d (fun () -> Mat.matmul x y) in
  let r1 = at 1 in
  List.iter
    (fun d -> check_bits_mat (Printf.sprintf "matmul domains=%d" d) r1 (at d))
    [ 2; 4 ]

(* --- failure and nesting semantics ---------------------------------------- *)

exception Boom

let test_exception_propagates_and_pool_survives () =
  with_domains 2 (fun () ->
      (try
         Par.parallel_for ~min:1 ~n:100 (fun i -> if i = 63 then raise Boom);
         Alcotest.fail "exception was swallowed"
       with Boom -> ());
      (* The pool must still schedule work after a failed job. *)
      let total =
        Par.parallel_reduce ~min:1 ~n:100 ~init:0
          ~step:(fun acc i -> acc + i)
          ~combine:( + ) ()
      in
      Alcotest.(check int) "pool survives a failure" 4950 total)

let test_nested_calls_degrade () =
  with_domains 2 (fun () ->
      let hits = Array.make 64 0 in
      Par.parallel_for ~min:1 ~n:8 (fun i ->
          (* Re-entrant fan-out must run sequentially, not deadlock. *)
          Par.parallel_for ~min:1 ~n:8 (fun j ->
              let k = (i * 8) + j in
              hits.(k) <- hits.(k) + 1));
      check_true "nested bodies all ran once" (Array.for_all (( = ) 1) hits))

let test_set_domains_clamps () =
  with_domains 1 (fun () ->
      Par.set_domains 0;
      Alcotest.(check int) "floor at 1" 1 (Par.domain_count ());
      Par.set_domains 3;
      Alcotest.(check int) "resize up" 3 (Par.domain_count ()))

(* --- pipeline determinism across domain counts ----------------------------- *)

let solve_whiten_pca () =
  let ds = Sider_data.Synth.clustered ~seed:5 ~n:160 ~d:6 ~k:2 () in
  let data = Sider_data.Dataset.matrix ds in
  let constraints =
    Constr.margin data
    @ Constr.cluster ~data
        ~rows:
          (Sider_data.Dataset.class_indices ds
             (List.hd (Sider_data.Dataset.classes ds)))
        ()
  in
  let solver = Solver.create data constraints in
  ignore (Solver.solve ~time_cutoff:30.0 solver);
  let y = Sider_projection.Whiten.whiten solver in
  let p = Sider_projection.Pca.fit y in
  let sigma0 = (Solver.class_params solver 0).Gauss_params.sigma in
  (Mat.copy sigma0, y, p)

let test_pipeline_bits_stable () =
  let at d = with_domains d solve_whiten_pca in
  let sigma1, y1, p1 = at 1 in
  List.iter
    (fun d ->
      let sigma, y, p = at d in
      let tag fmt = Printf.sprintf fmt d in
      check_bits_mat (tag "solver sigma domains=%d") sigma1 sigma;
      check_bits_mat (tag "whitened Y domains=%d") y1 y;
      check_bits_mat (tag "pca directions domains=%d")
        p1.Sider_projection.Pca.directions p.Sider_projection.Pca.directions;
      check_bits_vec (tag "pca variances domains=%d")
        p1.Sider_projection.Pca.variances p.Sider_projection.Pca.variances)
    [ 2; 4 ]

(* The SIMD ICA sweep combines per-chunk partials over a grid that is a
   pure function of n — so its output may differ from a serial sweep by
   rounding, but never across pool sizes.  n spans several chunks plus a
   ragged tail, at widths that reach every tile shape of the kernel:
   full and partial four-row and two-vector tiles, and the widest. *)
let test_ica_sweep_bits_stable () =
  List.iter
    (fun m ->
      let r = Sider_rand.Rng.create (41 + m) in
      let n = 1100 + m in
      let z = Mat.init n m (fun _ _ -> Sider_rand.Sampler.normal r) in
      let w = Sider_rand.Sampler.normal_mat r m m in
      let sweep_at d =
        with_domains d (fun () ->
            let k = Sider_projection.Ica_kernel.create z in
            let gz = Mat.create m m and eg = Array.make m 0.0 in
            Sider_projection.Ica_kernel.sweep k ~w ~gz ~eg;
            (gz, eg))
      in
      let gz1, eg1 = sweep_at 1 in
      List.iter
        (fun d ->
          let gz, eg = sweep_at d in
          let tag = Printf.sprintf "m=%d domains=%d" m d in
          check_bits_mat ("ica sweep gz " ^ tag) gz1 gz;
          check_bits_vec ("ica sweep eg " ^ tag) eg1 eg)
        [ 2; 4 ])
    [ 1; 7; 8; 9; 12; 16; 24; 33; 64 ]

(* Above 64 components [create] takes the portable path on every CPU:
   the path views of Table II's d=128 column run.  It must reproduce the
   three-pass pipeline bit for bit at every pool size; the planted zeros
   exercise the GEMM kernels' skip branches. *)
let test_ica_wide_sweep_is_unfused () =
  let n = 300 and m = 65 in
  let r = Sider_rand.Rng.create 43 in
  let z = Mat.init n m (fun _ _ -> Sider_rand.Sampler.normal r) in
  Mat.set z 0 0 0.0;
  Mat.set z 7 (m - 1) 0.0;
  Mat.set z (n - 1) 31 0.0;
  let w = Sider_rand.Sampler.normal_mat r m m in
  let gz_u, eg_u = Test_projection.unfused_sweep z w in
  List.iter
    (fun d ->
      let gz, eg =
        with_domains d (fun () ->
            Test_projection.kernel_sweep
              (Sider_projection.Ica_kernel.create z) z w)
      in
      check_bits_mat (Printf.sprintf "wide sweep gz domains=%d" d) gz_u gz;
      check_bits_vec (Printf.sprintf "wide sweep eg domains=%d" d) eg_u eg)
    [ 1; 2; 4 ]

(* --- a model of the AVX2 sweep ------------------------------------------- *)

(* The arithmetic of [ica_simd_stubs.c], one lane at a time: each
   [Float.fma] is one of the kernel's fused instructions, in the order
   the kernel runs them.  [simd_model_tanh] is [tanh4]: the doubled
   |x| clamped at 40 the way [_mm256_min_pd] clamps (the second operand
   unless the first is smaller, so NaN becomes 40), the magic-number
   round to k, the two-part ln 2 reduction, the degree-12 Horner
   polynomial for e^r − 1, 2^k by exponent insertion, and the sign
   put back by a bitwise or. *)
let simd_model_magic = 6755399441055744.0 (* 2^52 + 2^51 *)

let simd_model_coeffs =
  [| 1.0 /. 479001600.0; 1.0 /. 39916800.0; 1.0 /. 3628800.0;
     1.0 /. 362880.0; 1.0 /. 40320.0; 1.0 /. 5040.0; 1.0 /. 720.0;
     1.0 /. 120.0; 1.0 /. 24.0; 1.0 /. 6.0; 0.5; 1.0 |]

let simd_model_tanh x =
  let sign = Int64.logand (Int64.bits_of_float x) Int64.min_int in
  let a = Float.abs x *. 2.0 in
  let y = if a < 40.0 then a else 40.0 in
  let t = Float.fma y 1.4426950408889634074 simd_model_magic in
  let kd = t -. simd_model_magic in
  let r = Float.fma (-.kd) 6.93147180369123816490e-01 y in
  let r = Float.fma (-.kd) 1.90821492927058770002e-10 r in
  let p = ref simd_model_coeffs.(0) in
  for i = 1 to 11 do
    p := Float.fma !p r simd_model_coeffs.(i)
  done;
  let p = !p *. r in
  let k =
    Int64.sub (Int64.bits_of_float t) (Int64.bits_of_float simd_model_magic)
  in
  let twok = Int64.float_of_bits (Int64.shift_left (Int64.add k 1023L) 52) in
  let em = Float.fma twok p (twok -. 1.0) in
  let th = em /. (em +. 2.0) in
  Int64.float_of_bits (Int64.logor (Int64.bits_of_float th) sign)

(* One 256-row chunk, as the kernel sweeps it: per row the scores as an
   FMA chain over the features in increasing order from zero, then
   E[g'] += (1 − g²) with the 1 − g² fused, then every gᵀz entry
   += g·z fused.  Rows go in increasing order. *)
let simd_model_chunk z w lo hi =
  let _, m = Mat.dims z in
  let gz = Array.make (m * m) 0.0 and eg = Array.make m 0.0 in
  let g = Array.make m 0.0 in
  for i = lo to hi - 1 do
    for k = 0 to m - 1 do
      let s = ref 0.0 in
      for f = 0 to m - 1 do
        s := Float.fma (Mat.get z i f) (Mat.get w k f) !s
      done;
      g.(k) <- simd_model_tanh !s;
      eg.(k) <- eg.(k) +. Float.fma (-.g.(k)) g.(k) 1.0
    done;
    for k = 0 to m - 1 do
      for f = 0 to m - 1 do
        gz.((k * m) + f) <- Float.fma g.(k) (Mat.get z i f) gz.((k * m) + f)
      done
    done
  done;
  (gz, eg)

(* The chunk partials combine through [Par]'s ordered tree, each entry
   by one plain addition, as [Ica_kernel] combines the kernel's. *)
let simd_model_sweep z w =
  let n, m = Mat.dims z in
  let add a b = Array.iteri (fun i x -> a.(i) <- a.(i) +. x) b in
  match
    Par.parallel_reduce_chunks ~chunk:256 ~n
      ~part:(fun lo hi -> simd_model_chunk z w lo hi)
      ~combine:(fun (g1, e1) (g2, e2) -> add g1 g2; add e1 e2; (g1, e1))
      ()
  with
  | Some (gz, eg) -> (Mat.of_array m m gz, eg)
  | None -> (Mat.create m m, Array.make m 0.0)

(* Every width the stubs take, at a ragged n over three chunks, with a
   few inputs that reach tanh4's special cases: exact zeros, a score
   past the clamp, and a NaN row (the clamp sends it to ±1).  One kernel
   per width sweeps six times, at 1/2/4 domains and then again with a
   second w, so partials it reuses from sweep to sweep must not carry
   anything over. *)
let test_ica_sweep_matches_model () =
  if Sider_projection.Ica_kernel.simd_available () then
    for m = 1 to 64 do
      let n = 517 + (3 * m) in
      let r = Sider_rand.Rng.create (1000 + m) in
      let z = Mat.init n m (fun _ _ -> 1.5 *. Sider_rand.Sampler.normal r) in
      let w1 = Sider_rand.Sampler.normal_mat r m m in
      let w2 = Sider_rand.Sampler.normal_mat r m m in
      Mat.set z 0 0 0.0;
      Mat.set z (n - 1) (m - 1) 0.0;
      Mat.set z 3 0 40.0;
      Mat.set z 300 (m - 1) Float.nan;
      let kernel = Sider_projection.Ica_kernel.create z in
      List.iteri
        (fun wi w ->
          let gz_m, eg_m = simd_model_sweep z w in
          List.iter
            (fun d ->
              let gz, eg =
                with_domains d (fun () -> Test_projection.kernel_sweep kernel z w)
              in
              let tag =
                Printf.sprintf "m=%d n=%d w%d domains=%d" m n (wi + 1) d
              in
              check_bits_mat ("model gz " ^ tag) gz_m gz;
              check_bits_vec ("model eg " ^ tag) eg_m eg)
            [ 1; 2; 4 ])
        [ w1; w2 ]
    done

let suite =
  [
    case "parallel_for covers every index once at 1/2/4 domains"
      test_for_covers_all;
    case "parallel_for_chunks partitions [0,n)" test_for_chunks_partition;
    case "empty and single-element fan-outs" test_empty_and_small;
    case "float reduce is bit-stable across domain counts"
      test_reduce_bits_stable;
    case "matmul is bit-stable across domain counts" test_matmul_bits_stable;
    case "a failing body raises and the pool survives"
      test_exception_propagates_and_pool_survives;
    case "nested fan-out degrades to sequential" test_nested_calls_degrade;
    case "set_domains clamps and resizes" test_set_domains_clamps;
    slow_case "solver/whiten/pca are bit-identical at 1/2/4 domains"
      test_pipeline_bits_stable;
    case "ica sweep is bit-stable across domain counts"
      test_ica_sweep_bits_stable;
    case "ica sweep above 64 components is the unfused pipeline"
      test_ica_wide_sweep_is_unfused;
    case "ica sweep matches the model of its AVX2 arithmetic"
      test_ica_sweep_matches_model;
  ]
