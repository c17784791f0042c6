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
   rounding, but never across pool sizes.  n chosen to span several
   chunks plus a ragged tail. *)
let test_ica_sweep_bits_stable () =
  let r = Sider_rand.Rng.create 41 in
  let z = Mat.init 1100 7 (fun _ _ -> Sider_rand.Sampler.normal r) in
  let w = Sider_rand.Sampler.normal_mat r 7 7 in
  let sweep_at d =
    with_domains d (fun () ->
        let k = Sider_projection.Ica_kernel.create z in
        let gz = Mat.create 7 7 and eg = Array.make 7 0.0 in
        Sider_projection.Ica_kernel.sweep k ~w ~gz ~eg;
        (gz, eg))
  in
  let gz1, eg1 = sweep_at 1 in
  List.iter
    (fun d ->
      let gz, eg = sweep_at d in
      check_bits_mat (Printf.sprintf "ica sweep gz domains=%d" d) gz1 gz;
      check_bits_vec (Printf.sprintf "ica sweep eg domains=%d" d) eg1 eg)
    [ 2; 4 ]

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
  ]
