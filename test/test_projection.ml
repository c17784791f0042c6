(* Whitening, PCA, FastICA, scores and views. *)

open Sider_linalg
open Sider_maxent
open Sider_projection
open Test_helpers


(* The log-cosh score of a sample, through the one-column projection. *)
let log_cosh_score v =
  Scores.direction_log_cosh (Mat.of_array (Array.length v) 1 v) [| 1.0 |]

let rng = Sider_rand.Rng.create 31337

(* --- Scores -------------------------------------------------------------- *)

let test_pca_gain () =
  approx "unit variance → 0" 0.0 (Scores.pca_gain 1.0);
  check_true "inflated positive" (Scores.pca_gain 4.0 > 0.0);
  check_true "collapsed positive" (Scores.pca_gain 0.25 > 0.0);
  check_true "zero variance → ∞" (Scores.pca_gain 0.0 = infinity);
  (* Symmetric in log-scale around 1: gain(σ²) for σ²=2 vs 1/2 differ, but
     both exceed gain at 1.5. *)
  check_true "monotone away from 1"
    (Scores.pca_gain 3.0 > Scores.pca_gain 1.5)

let test_log_cosh_gaussian_zero () =
  let xs = Array.init 100_000 (fun _ -> Sider_rand.Sampler.normal rng) in
  approx ~eps:3e-3 "Gaussian scores ≈ 0" 0.0 (log_cosh_score xs)

let test_log_cosh_signs () =
  (* A two-point (super-bimodal, sub-Gaussian) distribution has
     E[log cosh] above the Gaussian value; a heavy-tailed one below. *)
  let bimodal = Array.init 10_000 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_true "bimodal positive" (log_cosh_score bimodal > 0.0);
  let heavy =
    Array.init 10_000 (fun _ ->
        let u = Sider_rand.Sampler.normal rng in
        u *. u *. u (* cubed normal: heavy tails *))
  in
  check_true "heavy-tailed negative" (log_cosh_score heavy < 0.0)

(* --- PCA ------------------------------------------------------------------ *)

let test_pca_known_directions () =
  (* Data stretched along (1,1): leading by-variance direction is (1,1)/√2. *)
  let m =
    Mat.init 500 2 (fun _ _ -> 0.0)
  in
  let r = Sider_rand.Rng.create 5 in
  for i = 0 to 499 do
    let t = 3.0 *. Sider_rand.Sampler.normal r in
    let n = 0.2 *. Sider_rand.Sampler.normal r in
    Mat.set m i 0 ((t +. n) /. sqrt 2.0);
    Mat.set m i 1 ((t -. n) /. sqrt 2.0)
  done;
  let fitted = Pca.fit_by_variance m in
  let w1, _ = Pca.top2 fitted in
  approx ~eps:1e-2 "leading direction"
    1.0 (Float.abs (Vec.dot w1 (Vec.normalize [| 1.0; 1.0 |])));
  check_true "variances sorted"
    (fitted.Pca.variances.(0) > fitted.Pca.variances.(1))

let test_pca_gain_ordering () =
  (* Gain ordering puts a tiny-variance direction before a mildly inflated
     one: var 0.01 has more gain than var 2. *)
  let r = Sider_rand.Rng.create 6 in
  let m =
    Mat.init 2000 3 (fun _ j ->
        let sd = match j with 0 -> sqrt 2.0 | 1 -> 1.0 | _ -> 0.1 in
        sd *. Sider_rand.Sampler.normal r)
  in
  let fitted = Pca.fit m in
  let w1, _ = Pca.top2 fitted in
  approx ~eps:1e-2 "tiny-variance direction wins" 1.0
    (Float.abs w1.(2))

let test_pca_mean () =
  let m = Mat.of_arrays [| [| 1.0; 5.0 |]; [| 3.0; 7.0 |] |] in
  let fitted = Pca.fit m in
  approx_vec "mean recorded" [| 2.0; 6.0 |] fitted.Pca.mean

(* --- FastICA ---------------------------------------------------------------- *)

let test_ica_recovers_sources () =
  (* Mix two independent non-Gaussian (uniform) sources; FastICA must
     recover the mixing directions. *)
  let r = Sider_rand.Rng.create 7 in
  let n = 4000 in
  let mix = [| [| 0.9; 0.3 |]; [| -0.2; 0.8 |] |] in
  let m =
    Mat.init n 2 (fun _ _ -> 0.0)
  in
  for i = 0 to n - 1 do
    let s1 = uniform r (-1.7) 1.7 in
    let s2 = uniform r (-1.7) 1.7 in
    Mat.set m i 0 ((mix.(0).(0) *. s1) +. (mix.(0).(1) *. s2));
    Mat.set m i 1 ((mix.(1).(0) *. s1) +. (mix.(1).(1) *. s2))
  done;
  let fitted = Fastica.fit (Sider_rand.Rng.create 8) m in
  check_true "converged" fitted.Fastica.converged;
  let w1, w2 = Fastica.top2 fitted in
  (* Unmixing directions recover the sources: projections of the data on
     w1/w2 should be close to uniform → strongly positive log-cosh score
     (sub-Gaussian). *)
  check_true "component 1 non-Gaussian"
    (Float.abs (Scores.direction_log_cosh m w1) > 0.01);
  check_true "component 2 non-Gaussian"
    (Float.abs (Scores.direction_log_cosh m w2) > 0.01);
  (* The recovered source should have near-unit absolute correlation with
     one of the true sources; verify via the unmixing of the known mixing
     matrix: directions should be ± rows of inv(mix)ᵀ normalized. *)
  (* s = A⁻¹x, so the true unmixing directions are the rows of A⁻¹. *)
  let minv = Linsolve.inverse (Mat.of_arrays mix) in
  let true1 = Vec.normalize (Mat.row minv 0) in
  let true2 = Vec.normalize (Mat.row minv 1) in
  let best_match w =
    Float.max
      (Float.abs (Vec.dot w true1))
      (Float.abs (Vec.dot w true2))
  in
  check_true "w1 aligns with a true unmixing direction" (best_match w1 > 0.98);
  check_true "w2 aligns with a true unmixing direction" (best_match w2 > 0.98)

let test_ica_gaussian_low_scores () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 9) 3000 3 in
  let fitted = Fastica.fit (Sider_rand.Rng.create 10) m in
  Array.iter
    (fun s -> check_true "Gaussian data ⇒ tiny scores" (Float.abs s < 0.03))
    fitted.Fastica.scores

let test_ica_scores_sorted () =
  let { Sider_data.Synth.data; _ } = Sider_data.Synth.x5 ~seed:3 () in
  let m = Sider_data.Dataset.matrix (Sider_data.Dataset.standardized data) in
  let fitted = Fastica.fit (Sider_rand.Rng.create 11) m in
  let s = fitted.Fastica.scores in
  for i = 0 to Array.length s - 2 do
    check_true "|score| decreasing" (Float.abs s.(i) >= Float.abs s.(i + 1) -. 1e-12)
  done

let test_ica_unit_directions () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 12) 500 4 in
  let fitted = Fastica.fit (Sider_rand.Rng.create 13) m in
  let _, k = Mat.dims fitted.Fastica.directions in
  for j = 0 to k - 1 do
    approx ~eps:1e-9 "unit norm" 1.0 (Vec.norm2 (Mat.col fitted.Fastica.directions j))
  done

let test_ica_rank_deficient () =
  (* A constant third column must be dropped, not crash. *)
  let r = Sider_rand.Rng.create 14 in
  let m =
    Mat.init 400 3 (fun _ j ->
        if j = 2 then 1.0 else Sider_rand.Sampler.normal r)
  in
  let fitted = Fastica.fit (Sider_rand.Rng.create 15) m in
  let _, k = Mat.dims fitted.Fastica.directions in
  check_true "degenerate direction dropped" (k = 2)

(* --- Whitening ----------------------------------------------------------------- *)

let test_whiten_identity_without_constraints () =
  let data = Sider_rand.Sampler.normal_mat rng 50 3 in
  let s = Solver.create data [] in
  approx_mat ~eps:1e-9 "no constraints ⇒ Y = X" data (Whiten.whiten s)

let test_whiten_gaussianizes () =
  (* Correlated Gaussian data + 1-cluster constraint: the whitened data
     must have ≈ identity covariance and zero mean. *)
  let r = Sider_rand.Rng.create 18 in
  let base = Sider_rand.Sampler.normal_mat r 800 3 in
  let mix =
    Mat.of_arrays [| [| 1.0; 0.7; 0.0 |]; [| 0.0; 1.0; 0.5 |];
                     [| 0.0; 0.0; 0.6 |] |]
  in
  let data = Mat.matmul base mix in
  let s = Solver.create data (Constr.one_cluster data) in
  ignore (Solver.solve ~lambda_tol:1e-7 ~param_tol:1e-7 ~max_sweeps:3000 s);
  let y = Whiten.whiten s in
  approx_mat ~eps:0.03 "cov(Y) = I" (Mat.identity 3) (Mat.covariance y);
  approx_vec ~eps:0.02 "mean(Y) = 0" [| 0.0; 0.0; 0.0 |] (Mat.col_means y)

let test_whiten_direction_preserving () =
  (* The symmetric square root must not flip or permute axes: for a
     diagonal background covariance the transform is diagonal. *)
  let data = Mat.of_arrays [| [| 2.0; 0.0 |]; [| -2.0; 0.0 |] |] in
  let c = Constr.quadratic ~data ~rows:[| 0; 1 |] ~w:[| 1.0; 0.0 |] () in
  let s = Solver.create data [ c ] in
  ignore (Solver.solve s);
  let y = Whiten.whiten s in
  (* Background variance along x is 4, so x shrinks by 2; y-axis variance
     stays 1 (prior), so the second coordinate is untouched. *)
  approx ~eps:1e-3 "x scaled" 1.0 (Mat.get y 0 0);
  approx ~eps:1e-9 "y untouched" 0.0 (Mat.get y 0 1)

let test_whiten_background_sample_spherical () =
  (* Whitening a sample of the background itself must give N(0, I) data
     (Eq. 14): at a fixed seed, the pooled coordinates and each single
     coordinate pass a KS test against Φ, every column mean is within
     4/√n of 0 and the covariance is near I. *)
  let module Ks = Sider_stats.Ks in
  let pooled_p y = snd (Ks.test_gaussian (Array.copy y.Mat.a)) in
  let solved ~seed ~n ~d ~k ~clusters =
    let ds = Sider_data.Synth.clustered ~seed ~n ~d ~k () in
    let data = Sider_data.Dataset.matrix ds in
    let cs =
      Constr.margin data
      @ List.concat_map
          (fun c ->
            Constr.cluster ~data
              ~rows:(Sider_data.Dataset.class_indices ds c) ())
          (clusters ds)
    in
    let s = Solver.create data cs in
    ignore (Solver.solve ~max_sweeps:2000 s);
    s
  in
  let check_spherical ~seed ~n ~d ~k ~clusters =
    let s = solved ~seed ~n ~d ~k ~clusters in
    let sample = Solver.sample s (Sider_rand.Rng.create (seed + 1)) in
    let w = Whiten.whiten_matrix s sample in
    let at what = Printf.sprintf "n=%d d=%d: %s" n d what in
    check_true (at "pooled KS p > 0.01") (pooled_p w > 0.01);
    for j = 0 to d - 1 do
      check_true (at (Printf.sprintf "coordinate %d KS p > 1e-3" j))
        (snd (Ks.test_gaussian (Mat.col w j)) > 1e-3)
    done;
    check_true (at "|mean| < 4/√n")
      (norm_inf (Mat.col_means w) < 4.0 /. sqrt (float_of_int n));
    approx_mat ~eps:0.25 (at "whitened sample ≈ spherical") (Mat.identity d)
      (Mat.covariance w)
  in
  check_spherical ~seed:21 ~n:300 ~d:3 ~k:2 ~clusters:(fun _ -> [ "c0" ]);
  check_spherical ~seed:23 ~n:600 ~d:6 ~k:3
    ~clusters:Sider_data.Dataset.classes;
  (* Negative control: the clustered data itself, whitened under a
     margin-only background, is far from N(0, I). *)
  let margin_only = solved ~seed:23 ~n:600 ~d:6 ~k:3 ~clusters:(fun _ -> []) in
  check_true "clustered data under margins fails the pooled KS test"
    (pooled_p (Whiten.whiten margin_only) < 0.01)

let test_whiten_shape_check () =
  let data = Sider_rand.Sampler.normal_mat rng 10 2 in
  let s = Solver.create data [] in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Whiten.whiten_matrix: shape mismatch with solver data")
    (fun () -> ignore (Whiten.whiten_matrix s (Mat.identity 3)))

(* --- View ------------------------------------------------------------------------ *)

let test_view_project () =
  let v =
    {
      View.method_ = View.Pca;
      axis1 = { View.direction = [| 1.0; 0.0 |]; score = 1.0 };
      axis2 = { View.direction = [| 0.0; 1.0 |]; score = 0.5 };
      degraded = None;
      unmixing = None;
    }
  in
  let pts = View.project v (Mat.of_arrays [| [| 3.0; 4.0 |] |]) in
  approx "x" 3.0 (fst pts.(0));
  approx "y" 4.0 (snd pts.(0))

let test_axis_label_format () =
  let axis = { View.direction = [| 0.71; -0.71; 0.01 |]; score = 0.093 } in
  let label =
    View.axis_label ~columns:[| "X1"; "X2"; "X3" |] ~prefix:"PCA1" axis
  in
  check_true "contains score" (String.length label > 0);
  check_true "score bracket"
    (String.sub label 0 10 = "PCA1[0.093");
  (* Largest loading first. *)
  let has_sub s sub =
    let ls = String.length s and lsub = String.length sub in
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0
  in
  check_true "X1 present" (has_sub label "(X1)");
  check_true "signs present" (has_sub label "+0.71" && has_sub label "-0.71")

let test_axis_label_top () =
  let axis = { View.direction = [| 0.9; 0.1; 0.05; 0.01 |]; score = 1.0 } in
  let label =
    View.axis_label ~top:2 ~columns:[| "a"; "b"; "c"; "d" |] ~prefix:"ICA1" axis
  in
  let count_paren = String.fold_left (fun acc c -> if c = '(' then acc + 1 else acc) 0 label in
  check_true "only top 2 terms" (count_paren = 2)

(* --- Fused ICA sweep kernels ---------------------------------------------- *)

let random_mat r n m scale =
  Mat.init n m (fun _ _ -> scale *. Sider_rand.Sampler.normal r)

(* The three-pass pipeline, spelled out here independently of
   Ica_kernel: the portable path must match it bit for bit. *)
let unfused_sweep z w =
  let n, m = Mat.dims z in
  let s = Mat.create n m and g = Mat.create n m in
  let gz = Mat.create m m and eg = Vec.create m in
  Mat.matmul_nt_into ~dst:s z w;
  Mat.tanh_into ~dst:g s;
  Mat.matmul_tn_into ~dst:gz g z;
  Array.fill eg 0 m 0.0;
  let ga = g.Mat.a in
  for i = 0 to n - 1 do
    let off = i * m in
    for k = 0 to m - 1 do
      let t = Array.unsafe_get ga (off + k) in
      eg.(k) <- eg.(k) +. (1.0 -. (t *. t))
    done
  done;
  (gz, eg)

let kernel_sweep kernel z w =
  let _, m = Mat.dims z in
  let gz = Mat.create m m and eg = Vec.create m in
  Ica_kernel.sweep kernel ~w ~gz ~eg;
  (gz, eg)

let portable_kernel z = Ica_kernel.with_portable (fun () -> ica_kernel z)

let kernel_shapes =
  [ (137, 5, 3); (256, 8, 4); (61, 3, 5); (700, 11, 6); (517, 12, 7);
    (300, 16, 8); (777, 24, 9); (600, 33, 10); (530, 64, 11) ]

let test_ica_kernel_reference_bit_identical () =
  List.iter
    (fun (n, m, seed) ->
      let r = Sider_rand.Rng.create seed in
      let z = random_mat r n m 1.5 in
      (* Plant exact zeros so the GEMM skip paths are exercised. *)
      Mat.set z 0 0 0.0;
      Mat.set z (n - 1) (m - 1) 0.0;
      let w = random_mat r m m 1.0 in
      let gz_u, eg_u = unfused_sweep z w in
      let gz_f, eg_f = kernel_sweep (portable_kernel z) z w in
      for k = 0 to m - 1 do
        if Int64.bits_of_float eg_u.(k) <> Int64.bits_of_float eg_f.(k) then
          Alcotest.failf "eg (n=%d m=%d k=%d): %h vs %h" n m k eg_u.(k)
            eg_f.(k);
        for j = 0 to m - 1 do
          if
            Int64.bits_of_float (Mat.get gz_u k j)
            <> Int64.bits_of_float (Mat.get gz_f k j)
          then
            Alcotest.failf "gz (n=%d m=%d %d,%d): %h vs %h" n m k j
              (Mat.get gz_u k j) (Mat.get gz_f k j)
        done
      done)
    kernel_shapes

let test_ica_kernel_simd_close () =
  if not (Ica_kernel.simd_available ()) then ()
  else
    List.iter
      (fun (n, m, seed) ->
        let r = Sider_rand.Rng.create seed in
        let z = random_mat r n m 1.5 in
        let w = random_mat r m m 1.0 in
        let gz_r, eg_r = kernel_sweep (portable_kernel z) z w in
        let kernel = ica_kernel z in
        let gz_s, eg_s = kernel_sweep kernel z w in
        (* Polynomial tanh at ~1e-15 relative error plus chunked partial
           sums: entries of an n-term sum agree to ~1e-12 of its scale. *)
        let tol v = 1e-10 *. Float.max 1.0 (Float.abs v) in
        for k = 0 to m - 1 do
          if Float.abs (eg_s.(k) -. eg_r.(k)) > tol eg_r.(k) then
            Alcotest.failf "eg (n=%d m=%d k=%d): %.17g vs %.17g" n m k
              eg_r.(k) eg_s.(k);
          for j = 0 to m - 1 do
            let a = Mat.get gz_r k j and b = Mat.get gz_s k j in
            if Float.abs (b -. a) > tol a then
              Alcotest.failf "gz (n=%d m=%d %d,%d): %.17g vs %.17g" n m k j
                a b
          done
        done)
      kernel_shapes

(* Above 64 components the portable path, which CPUs without AVX2 and
   the goldens run, still reproduces the three-pass pipeline bit for
   bit; the planted zeros exercise the GEMM kernels' skip branches. *)
let test_ica_wide_sweep_is_unfused () =
  let n = 300 and m = 65 in
  let r = Sider_rand.Rng.create 43 in
  let z = random_mat r n m 1.0 in
  Mat.set z 0 0 0.0;
  Mat.set z 7 (m - 1) 0.0;
  Mat.set z (n - 1) 31 0.0;
  let w = random_mat r m m 1.0 in
  let gz_u, eg_u = unfused_sweep z w in
  let gz, eg = kernel_sweep (portable_kernel z) z w in
  check_bits "wide sweep gz" gz_u.Mat.a gz.Mat.a;
  check_bits "wide sweep eg" eg_u eg

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
  let za = z.Mat.a and wa = w.Mat.a in
  let gz = Array.make (m * m) 0.0 and eg = Array.make m 0.0 in
  let g = Array.make m 0.0 in
  for i = lo to hi - 1 do
    for k = 0 to m - 1 do
      let s = ref 0.0 in
      for f = 0 to m - 1 do
        s := Float.fma za.((i * m) + f) wa.((k * m) + f) !s
      done;
      g.(k) <- simd_model_tanh !s;
      eg.(k) <- eg.(k) +. Float.fma (-.g.(k)) g.(k) 1.0
    done;
    for k = 0 to m - 1 do
      for f = 0 to m - 1 do
        gz.((k * m) + f) <- Float.fma g.(k) za.((i * m) + f) gz.((k * m) + f)
      done
    done
  done;
  (gz, eg)

(* The chunk partials add up over an ordered binary tree, split
   left-heavy, each entry by one plain addition. *)
let rec simd_model_tree parts lo hi =
  if hi - lo = 1 then parts.(lo)
  else begin
    let mid = lo + ((hi - lo + 1) / 2) in
    let g1, e1 = simd_model_tree parts lo mid in
    let g2, e2 = simd_model_tree parts mid hi in
    (Array.map2 ( +. ) g1 g2, Array.map2 ( +. ) e1 e2)
  end

let simd_model_sweep z w =
  let n, m = Mat.dims z in
  let chunks = (n + 255) / 256 in
  let parts =
    Array.init chunks (fun c ->
        simd_model_chunk z w (256 * c) (Stdlib.min n (256 * (c + 1))))
  in
  let gz, eg = simd_model_tree parts 0 chunks in
  (Mat.of_array m m gz, eg)

(* Widths 1 to 72 and 100 and 128, at a ragged n over three or four
   chunks, reach every tile shape and several row-block sizes, with a
   few inputs that reach tanh4's special cases: exact zeros, a score
   past the clamp, and a NaN row (the clamp sends it to ±1).  One
   kernel per width sweeps twice, with two w, so partials it reuses
   from sweep to sweep must not carry anything over. *)
let test_ica_sweep_matches_model () =
  if Ica_kernel.simd_available () then
    List.iter
      (fun m ->
        let n = 517 + (3 * m) in
        let r = Sider_rand.Rng.create (1000 + m) in
        let z = random_mat r n m 1.5 in
        let w1 = Sider_rand.Sampler.normal_mat r m m in
        let w2 = Sider_rand.Sampler.normal_mat r m m in
        Mat.set z 0 0 0.0;
        Mat.set z (n - 1) (m - 1) 0.0;
        Mat.set z 3 0 40.0;
        Mat.set z 300 (m - 1) Float.nan;
        let kernel = ica_kernel z in
        List.iteri
          (fun wi w ->
            let gz_m, eg_m = simd_model_sweep z w in
            let gz, eg = kernel_sweep kernel z w in
            let tag = Printf.sprintf "m=%d n=%d w%d" m n (wi + 1) in
            check_bits ("model gz " ^ tag) gz_m.Mat.a gz.Mat.a;
            check_bits ("model eg " ^ tag) eg_m eg)
          [ w1; w2 ])
      (List.init 72 (fun i -> i + 1) @ [ 100; 128 ])

let with_obs_recording f =
  let r = Sider_obs.Obs.recording_sink () in
  Sider_obs.Obs.reset ();
  Fun.protect ~finally:Sider_obs.Obs.reset (fun () ->
      with_sink (Some r.Sider_obs.Obs.rec_sink) (fun () -> f r))

let test_ica_view_one_fit () =
  (* An ICA view runs exactly one FastICA fit, on one prepare, whether
     the fit converges or not: a fit that does not converge is shown
     (flagged degraded), never retried from another start. *)
  let traced_view ?ica_max_iter ?ica_w0 y =
    with_obs_recording (fun r ->
        let v =
          View.of_whitened ~rng:(Sider_rand.Rng.create 7) ?ica_max_iter
            ?ica_w0 ~method_:View.Ica y
        in
        let fits =
          List.filter
            (fun (sp : Sider_obs.Obs.span) -> sp.Sider_obs.Obs.name = "ica.fit")
            (r.Sider_obs.Obs.spans ())
        in
        (v, fits, Sider_obs.Obs.counter_value "ica.prepare"))
  in
  let finite = Array.for_all Float.is_finite in
  (* One iteration cannot converge on noise. *)
  let noise = random_mat (Sider_rand.Rng.create 99) 300 4 1.0 in
  let v, fits, prepares = traced_view ~ica_max_iter:1 noise in
  Alcotest.(check int) "non-converging view: one fit" 1 (List.length fits);
  Alcotest.(check int) "non-converging view: one prepare" 1 prepares;
  check_true "non-converging view is ICA" (v.View.method_ = View.Ica);
  check_true "non-converging view is degraded" (v.View.degraded <> None);
  check_true "non-converging axes finite"
    (finite v.View.axis1.View.direction && finite v.View.axis2.View.direction);
  (* A converged unmixing passed back as the start converges again. *)
  let r = Sider_rand.Rng.create 91 in
  let sources =
    Mat.init 800 3 (fun _ j ->
        if j = 0 then Sider_rand.Rng.float r -. 0.5
        else Sider_rand.Sampler.normal r)
  in
  let cold = Fastica.fit (Sider_rand.Rng.create 3) sources in
  check_true "cold fit converged" cold.Fastica.converged;
  let v, fits, _ = traced_view ~ica_w0:cold.Fastica.unmixing sources in
  Alcotest.(check int) "warm view: one fit" 1 (List.length fits);
  check_true "warm fit converged"
    (List.for_all
       (fun (sp : Sider_obs.Obs.span) ->
         List.assoc_opt "converged" sp.Sider_obs.Obs.attrs
         = Some (Sider_obs.Obs.Bool true))
       fits);
  check_true "warm view not degraded" (v.View.degraded = None)

let test_ica_warm_w0_roundtrip () =
  (* A converged unmixing matrix passed back as w0 must converge again,
     quickly, to the same subspace — the warm-view contract Session
     relies on. *)
  let r = Sider_rand.Rng.create 91 in
  let n = 800 in
  let m =
    Mat.init n 3 (fun _ j ->
        let u = Sider_rand.Rng.float r -. 0.5 in
        let v = Sider_rand.Sampler.normal r in
        if j = 0 then u else v)
  in
  let prep = Fastica.prepare m in
  let cold = Fastica.fit_prepared (Sider_rand.Rng.create 3) prep in
  check_true "cold fit converged" cold.Fastica.converged;
  let warm =
    Fastica.fit_prepared ~w0:cold.Fastica.unmixing
      (Sider_rand.Rng.create 4) prep
  in
  check_true "warm fit converged" warm.Fastica.converged;
  check_true "warm fit is cheaper"
    (warm.Fastica.iterations <= cold.Fastica.iterations);
  (* Same components up to sign/permutation: compare score magnitudes. *)
  Array.iteri
    (fun i s ->
      approx ~eps:1e-3 "warm scores match cold"
        (Float.abs cold.Fastica.scores.(i))
        (Float.abs s))
    warm.Fastica.scores

let test_view_of_solver_picks_structure () =
  (* Clusters along X3 only: the most informative view must load on X3. *)
  let r = Sider_rand.Rng.create 23 in
  let n = 600 in
  let data =
    Mat.init n 3 (fun i j ->
        if j = 2 then
          (if i mod 2 = 0 then 2.0 else -2.0) +. (0.2 *. Sider_rand.Sampler.normal r)
        else Sider_rand.Sampler.normal r)
  in
  let s = Solver.create data [] in
  let v = View.of_solver ~method_:View.Pca s in
  check_true "axis1 loads on X3"
    (Float.abs v.View.axis1.View.direction.(2) > 0.95)

(* The row projections read each row in place; a row copy and [Vec.dot]
   (the formulation they replaced) must give the same bits, including
   for planted zeros, infinities and NaN. *)
let prop_projection_bits_as_row_copies =
  let gen =
    QCheck.(triple (int_range 1 40) (int_range 1 20) (int_range 0 1_000_000))
  in
  qcheck ~count:100 "projections read rows in place, same bits" gen
    (fun (n, d, seed) ->
      let r = Sider_rand.Rng.create seed in
      let m = random_mat r n d 2.0 in
      Mat.set m (Sider_rand.Rng.int r n) (Sider_rand.Rng.int r d) 0.0;
      if seed mod 5 = 0 then
        Mat.set m (Sider_rand.Rng.int r n) (Sider_rand.Rng.int r d) infinity;
      if seed mod 7 = 0 then
        Mat.set m (Sider_rand.Rng.int r n) (Sider_rand.Rng.int r d) Float.nan;
      let w1 = Sider_rand.Sampler.normal_vec r d in
      let w2 = Sider_rand.Sampler.normal_vec r d in
      let v =
        { View.method_ = View.Ica; axis1 = { View.direction = w1; score = 0.0 };
          axis2 = { View.direction = w2; score = 0.0 }; degraded = None;
          unmixing = None }
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let copied w = Array.init n (fun i -> Vec.dot (Mat.row m i) w) in
      let x1 = copied w1 and x2 = copied w2 in
      let pts = View.project v m in
      Array.for_all Fun.id
        (Array.init n (fun i -> same (fst pts.(i)) x1.(i) && same (snd pts.(i)) x2.(i)))
      && same (Scores.direction_log_cosh m w1) (log_cosh_score x1))

(* One FastICA iteration at [ica_explore]'s shape (n=512, m=12) allocates
   at most 1,280 words: its six fresh 12×12 matrices (149 words each)
   and the eigendecomposition's short vectors, but no boxed float per
   matrix entry.  Counted as the difference between
   fits of 200 and 100 iterations at [tol] 0 (neither stops early). *)
let test_ica_iteration_allocation () =
  let x =
    Sider_data.Dataset.matrix
      (Sider_data.Synth.clustered ~seed:7919 ~n:512 ~d:12 ~k:6 ())
  in
  let prep = Fastica.prepare x in
  let words iterations =
    let fitted, words =
      allocated_words (fun () ->
          Fastica.fit_prepared ~max_iter:iterations ~tol:0.0
            (Sider_rand.Rng.create 5) prep)
    in
    Alcotest.(check int) "iterations" iterations fitted.Fastica.iterations;
    Alcotest.(check int) "components" 12 (Array.length fitted.Fastica.scores);
    float_of_int words
  in
  let per_iteration = (words 200 -. words 100) /. 100.0 in
  if per_iteration > 1280.0 then
    Alcotest.failf "one FastICA iteration allocated %.1f words, at most 1280"
      per_iteration

(* After the fixed point a fit scores every direction over every row:
   at [ica_explore]'s shape (n=512, m=12) a 1-iteration fit, scoring
   included, allocates at most 3·n·m words: two n-float arrays a
   direction (its projections and their standardized copy) and no boxed
   float per entry.  Boxing each entry took about 140,400. *)
let test_ica_scoring_allocation () =
  let x =
    Sider_data.Dataset.matrix
      (Sider_data.Synth.clustered ~seed:7919 ~n:512 ~d:12 ~k:6 ())
  in
  let n, m = Mat.dims x in
  let prep = Fastica.prepare x in
  let fitted, words =
    allocated_words (fun () ->
        Fastica.fit_prepared ~max_iter:1 ~tol:0.0 (Sider_rand.Rng.create 5) prep)
  in
  Alcotest.(check int) "components" m (Array.length fitted.Fastica.scores);
  if words > 3 * n * m then
    Alcotest.failf "a 1-iteration FastICA fit allocated %d words, over 3nm = %d"
      words (3 * n * m)

let suite =
  [
    case "pca gain" test_pca_gain;
    case "log-cosh score of Gaussian is 0" test_log_cosh_gaussian_zero;
    case "log-cosh score signs" test_log_cosh_signs;
    case "pca known directions" test_pca_known_directions;
    case "pca gain ordering" test_pca_gain_ordering;
    case "pca records mean" test_pca_mean;
    case "ica recovers uniform sources" test_ica_recovers_sources;
    case "ica on Gaussian: low scores" test_ica_gaussian_low_scores;
    case "ica scores sorted by magnitude" test_ica_scores_sorted;
    case "ica directions unit norm" test_ica_unit_directions;
    case "ica drops rank-deficient directions" test_ica_rank_deficient;
    case "whiten: identity without constraints" test_whiten_identity_without_constraints;
    case "whiten gaussianizes constrained data" test_whiten_gaussianizes;
    case "whiten preserves directions" test_whiten_direction_preserving;
    case "whitened background is spherical" test_whiten_background_sample_spherical;
    case "whiten shape check" test_whiten_shape_check;
    case "view projection" test_view_project;
    case "axis label format" test_axis_label_format;
    case "axis label top terms" test_axis_label_top;
    case "view finds planted structure" test_view_of_solver_picks_structure;
    case "ica kernel: fused reference is bit-identical to unfused pipeline"
      test_ica_kernel_reference_bit_identical;
    case "ica kernel: simd agrees with reference" test_ica_kernel_simd_close;
    case "ica sweep above 64 components: portable is the unfused pipeline"
      test_ica_wide_sweep_is_unfused;
    case "ica sweep matches the model of its AVX2 arithmetic"
      test_ica_sweep_matches_model;
    case "ica view runs one fastica fit" test_ica_view_one_fit;
    case "ica warm w0 roundtrip" test_ica_warm_w0_roundtrip;
    prop_projection_bits_as_row_copies;
    case "one fastica iteration allocates at most 1280 words"
      test_ica_iteration_allocation;
    case "fastica scoring allocates at most 3nm words"
      test_ica_scoring_allocation;
  ]
