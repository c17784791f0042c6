(* KS test, MDS, t-SNE and projection-pursuit line search. *)

open Sider_linalg
open Sider_stats
open Sider_projection
open Test_helpers

let rng = Sider_rand.Rng.create 424242

(* --- KS ------------------------------------------------------------------- *)

let test_ks_uniform_exact () =
  (* One point at 0: the empirical CDF steps from 0 to 1 where Φ is 1/2,
     so the KS distance is 1/2 (to [erf]'s error at 0, 1e-9). *)
  approx ~eps:1e-8 "exact distance" 0.5 (fst (Ks.test_gaussian [| 0.0 |]))

let test_ks_gaussian_accepts_gaussian () =
  let xs = Array.init 2000 (fun _ -> Sider_rand.Sampler.normal rng) in
  let d, p = Ks.test_gaussian xs in
  check_true "small distance" (d < 0.04);
  check_true "not rejected" (p > 0.01)

let test_ks_rejects_shifted () =
  let xs =
    Array.init 2000 (fun _ -> 0.5 +. Sider_rand.Sampler.normal rng)
  in
  let d, p = Ks.test_gaussian xs in
  check_true "large distance" (d > 0.1);
  check_true "rejected" (p < 1e-6)

let test_ks_rejects_uniform () =
  let xs = Array.init 2000 (fun _ -> Sider_rand.Rng.float rng) in
  let _, p = Ks.test_gaussian xs in
  check_true "uniform is not normal" (p < 1e-6)

let test_ks_p_value_monotone () =
  let near = Array.init 100 (fun _ -> Sider_rand.Sampler.normal rng) in
  let far = Array.map (fun x -> x +. 0.8) near in
  let d_near, p_near = Ks.test_gaussian near in
  let d_far, p_far = Ks.test_gaussian far in
  check_true "larger distance" (d_far > d_near);
  check_true "larger distance, smaller p" (p_far < p_near)

let test_session_residual_gaussianity () =
  (* The diagnostic falls as the background absorbs the structure. *)
  let { Sider_data.Synth.data; group13; _ } =
    Sider_data.Synth.x5 ~seed:3 ~n:500 ()
  in
  let session = Sider_core.Session.create ~seed:5 data in
  let d_before, _ = Sider_core.Session.residual_gaussianity session in
  List.iter
    (fun g ->
      let rows = ref [] in
      Array.iteri (fun i x -> if String.equal x g then rows := i :: !rows)
        group13;
      Sider_core.Session.add_cluster_constraint session
        (Array.of_list !rows))
    [ "A"; "B"; "C"; "D" ];
  ignore (Sider_core.Session.update_background_exn session);
  let d_after, _ = Sider_core.Session.residual_gaussianity session in
  check_true "KS distance falls with learning" (d_after < d_before)

(* --- MDS ------------------------------------------------------------------- *)

let test_mds_recovers_line () =
  (* Points on a line: 1-D MDS must preserve the pairwise distances. *)
  let m = Mat.init 6 3 (fun i j -> if j = 0 then float_of_int i else 0.0) in
  let emb = Mds.fit ~dims:1 m in
  let d01 = Float.abs (Mat.get emb 0 0 -. Mat.get emb 1 0) in
  let d05 = Float.abs (Mat.get emb 0 0 -. Mat.get emb 5 0) in
  approx ~eps:1e-9 "unit spacing" 1.0 d01;
  approx ~eps:1e-9 "total length" 5.0 d05

let test_mds_euclidean_preserves_distances () =
  let m = Sider_rand.Sampler.normal_mat rng 20 2 in
  let emb = Mds.fit ~dims:2 m in
  (* With dims = original rank, classical MDS is exact. *)
  for i = 0 to 19 do
    for j = i + 1 to 19 do
      approx ~eps:1e-6 "distance preserved"
        (Vec.dist2 (Mat.row m i) (Mat.row m j))
        (Vec.dist2 (Mat.row emb i) (Mat.row emb j))
    done
  done

let test_mds_separates_blobs () =
  let centers = Mat.of_arrays [| [| 0.0; 0.0; 0.0 |]; [| 8.0; 8.0; 8.0 |] |] in
  let ds = blobs ~seed:4 ~sd:0.3 ~centers ~sizes:[| 20; 20 |] in
  let emb = Mds.fit (Sider_data.Dataset.matrix ds) in
  (* The two blobs must stay separated along the first MDS axis. *)
  let a = Array.init 20 (fun i -> Mat.get emb i 0) in
  let b = Array.init 20 (fun i -> Mat.get emb (20 + i) 0) in
  check_true "blobs separated"
    (Vec.max a < Vec.min b || Vec.max b < Vec.min a)

(* --- t-SNE ------------------------------------------------------------------ *)

let tsne_test_params =
  { Tsne.default_params with Tsne.perplexity = 8.0; iterations = 300 }

let test_tsne_separates_blobs () =
  let centers = Mat.of_arrays [| [| 0.0; 0.0 |]; [| 10.0; 0.0 |] |] in
  let ds = blobs ~seed:5 ~sd:0.3 ~centers ~sizes:[| 30; 30 |] in
  let m = Sider_data.Dataset.matrix ds in
  let emb = Tsne.fit ~params:tsne_test_params (Sider_rand.Rng.create 6) m in
  (* Within-blob embedding distances must be smaller than between-blob. *)
  let dist i j = Vec.dist2 (Mat.row emb i) (Mat.row emb j) in
  let within = ref 0.0 and between = ref 0.0 in
  let wc = ref 0 and bc = ref 0 in
  for i = 0 to 59 do
    for j = i + 1 to 59 do
      if (i < 30) = (j < 30) then begin
        within := !within +. dist i j;
        incr wc
      end
      else begin
        between := !between +. dist i j;
        incr bc
      end
    done
  done;
  let within = !within /. float_of_int !wc in
  let between = !between /. float_of_int !bc in
  check_true "clusters separated in embedding" (between > 2.0 *. within)

let test_tsne_perplexity_validation () =
  let m = Mat.identity 10 in
  Alcotest.check_raises "perplexity too large"
    (Invalid_argument "Tsne.fit: perplexity too large for n") (fun () ->
      ignore (Tsne.fit (Sider_rand.Rng.create 7) m))

(* --- LLE --------------------------------------------------------------------- *)

let test_lle_unrolls_curve () =
  (* Points along a half-circle: 1-D LLE must order them by arc position. *)
  let n = 40 in
  let m =
    Mat.init n 2 (fun i j ->
        let t = Float.pi *. float_of_int i /. float_of_int (n - 1) in
        if j = 0 then cos t else sin t)
  in
  let emb = Lle.fit ~dims:1 ~neighbours:4 m in
  let coords = Array.init n (fun i -> Mat.get emb i 0) in
  (* Monotone along the curve (up to global sign): count inversions. *)
  let inc = ref 0 and dec = ref 0 in
  for i = 0 to n - 2 do
    if coords.(i + 1) > coords.(i) then incr inc else incr dec
  done;
  check_true "embedding ordered along the curve"
    (Stdlib.min !inc !dec <= 2)

let test_lle_validation () =
  let m = Mat.identity 5 in
  Alcotest.check_raises "neighbours >= n"
    (Invalid_argument "Lle: neighbours >= n") (fun () ->
      ignore (Lle.fit ~neighbours:5 m));
  Alcotest.check_raises "dims too large"
    (Invalid_argument "Lle: dims >= neighbours + 1") (fun () ->
      ignore (Lle.fit ~dims:3 ~neighbours:2 m))

let test_lle_separates_blobs () =
  let centers = Mat.of_arrays [| [| 0.0; 0.0; 0.0 |]; [| 9.0; 9.0; 9.0 |] |] in
  let ds = blobs ~seed:7 ~sd:0.3 ~centers ~sizes:[| 25; 25 |] in
  let emb = Lle.fit ~neighbours:6 (Sider_data.Dataset.matrix ds) in
  let a = Array.init 25 (fun i -> Mat.get emb i 0) in
  let b = Array.init 25 (fun i -> Mat.get emb (25 + i) 0) in
  check_true "blobs separated along first LLE axis"
    (Vec.max a < Vec.min b || Vec.max b < Vec.min a)

(* --- Pursuit ----------------------------------------------------------------- *)

let bimodal_data ?(n = 400) ?(dir = 2) ?(d = 4) () =
  (* Bimodal along axis [dir], Gaussian elsewhere: the most non-Gaussian
     direction is that axis. *)
  Mat.init n d (fun i j ->
      if j = dir then
        (if i mod 2 = 0 then 1.5 else -1.5) +. (0.3 *. Sider_rand.Sampler.normal rng)
      else Sider_rand.Sampler.normal rng)

let test_pursuit_finds_bimodal_axis () =
  let m = bimodal_data () in
  let w, _ = Pursuit.top2 (Sider_rand.Rng.create 11) Pursuit.abs_log_cosh m in
  check_true "axis found" (Float.abs w.(2) > 0.95);
  check_true "positive index" (Pursuit.abs_log_cosh m w > 0.05)

let test_pursuit_top2_orthogonal () =
  let m = bimodal_data ~d:5 () in
  let w1, w2 =
    Pursuit.top2 ~restarts:3 (Sider_rand.Rng.create 13) Pursuit.abs_log_cosh m
  in
  approx ~eps:1e-6 "unit w1" 1.0 (Vec.norm2 w1);
  approx ~eps:1e-6 "unit w2" 1.0 (Vec.norm2 w2);
  approx ~eps:1e-6 "orthogonal" 0.0 (Vec.dot w1 w2)

let test_pursuit_matches_ica_quality () =
  (* On the bimodal data the line search should reach an index close to
     what FastICA's best component attains. *)
  let m = bimodal_data () in
  let w, _ = Pursuit.top2 (Sider_rand.Rng.create 14) Pursuit.abs_log_cosh m in
  let ica = Fastica.fit (Sider_rand.Rng.create 15) m in
  let ica_best = Float.abs ica.Fastica.scores.(0) in
  check_true "pursuit within 10% of ICA"
    (Pursuit.abs_log_cosh m w > 0.9 *. ica_best)

let suite =
  [
    case "ks exact uniform distance" test_ks_uniform_exact;
    case "ks accepts gaussian" test_ks_gaussian_accepts_gaussian;
    case "ks rejects shifted" test_ks_rejects_shifted;
    case "ks rejects uniform" test_ks_rejects_uniform;
    case "ks p-value monotone" test_ks_p_value_monotone;
    slow_case "session residual gaussianity falls" test_session_residual_gaussianity;
    case "mds recovers a line" test_mds_recovers_line;
    case "mds exact for euclidean input" test_mds_euclidean_preserves_distances;
    case "mds separates blobs" test_mds_separates_blobs;
    slow_case "tsne separates blobs" test_tsne_separates_blobs;
    case "tsne perplexity validation" test_tsne_perplexity_validation;
    case "lle unrolls a curve" test_lle_unrolls_curve;
    case "lle validation" test_lle_validation;
    case "lle separates blobs" test_lle_separates_blobs;
    case "pursuit finds bimodal axis" test_pursuit_finds_bimodal_axis;
    case "pursuit top2 orthogonal" test_pursuit_top2_orthogonal;
    slow_case "pursuit matches ICA quality" test_pursuit_matches_ica_quality;
  ]
