(* Cholesky, eigendecomposition, SVD, LU/Woodbury tests. *)

open Sider_linalg
open Test_helpers

let rng = Sider_rand.Rng.create 123

(* --- Cholesky ------------------------------------------------------------ *)

let test_chol_known () =
  let a = Mat.of_arrays [| [| 4.0; 2.0 |]; [| 2.0; 5.0 |] |] in
  let l = Chol.decompose a in
  approx "l00" 2.0 (Mat.get l 0 0);
  approx "l10" 1.0 (Mat.get l 1 0);
  approx "l11" 2.0 (Mat.get l 1 1);
  approx "l01 zero" 0.0 (Mat.get l 0 1)

let test_chol_reconstruct () =
  let a = random_spd rng 5 in
  let l = Chol.decompose a in
  approx_mat ~eps:1e-8 "LLᵀ = A" a (Mat.matmul l (Mat.transpose l))

let test_chol_not_pd () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "indefinite" Chol.Not_positive_definite (fun () ->
      ignore (Chol.decompose a))

let test_chol_psd () =
  (* Rank-1 PSD matrix: decompose_psd must not raise and must
     reconstruct. *)
  let v = [| 1.0; 2.0; -1.0 |] in
  let a = Mat.init 3 3 (fun i j -> v.(i) *. v.(j)) in
  let l = Chol.decompose_psd a in
  approx_mat ~eps:1e-9 "PSD reconstruct" a (Mat.matmul l (Mat.transpose l))

let test_chol_solve () =
  let a = random_spd rng 4 in
  let l = Chol.decompose a in
  let x = Sider_rand.Sampler.normal_vec rng 4 in
  let b = Mat.mv a x in
  approx_vec ~eps:1e-8 "solve" x (Chol.solve l b)

let test_chol_inverse () =
  let a = random_spd rng 4 in
  let inv = Chol.inverse (Chol.decompose a) in
  approx_mat ~eps:1e-8 "A A⁻¹ = I" (Mat.identity 4) (Mat.matmul a inv)


(* --- Eigen ---------------------------------------------------------------- *)

let test_eigen_diag () =
  let { Eigen.values; vectors } = Eigen.symmetric (diag [| 1.0; 3.0; 2.0 |]) in
  approx_vec "sorted eigenvalues" [| 3.0; 2.0; 1.0 |] values;
  (* Each eigenvector should be ± a basis vector. *)
  approx "v for 3" 1.0 (Float.abs (Mat.get vectors 1 0))

let test_eigen_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1), (1,-1). *)
  let { Eigen.values; vectors } =
    Eigen.symmetric (Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |])
  in
  approx_vec ~eps:1e-10 "values" [| 3.0; 1.0 |] values;
  let v0 = Mat.col vectors 0 in
  approx ~eps:1e-10 "eigvec direction" 1.0
    (Float.abs (Vec.dot v0 (Vec.normalize [| 1.0; 1.0 |])))

(* V diag(values) Vᵀ. *)
let reconstruct { Eigen.values; vectors } =
  Mat.matmul (Mat.matmul vectors (diag values)) (Mat.transpose vectors)

let test_eigen_reconstruct () =
  let a = random_sym rng 6 in
  let dec = Eigen.symmetric a in
  approx_mat ~eps:1e-8 "V D Vᵀ = A" a (reconstruct dec)

let test_eigen_orthonormal () =
  let a = random_sym rng 7 in
  let { Eigen.vectors; _ } = Eigen.symmetric a in
  approx_mat ~eps:1e-9 "VᵀV = I" (Mat.identity 7)
    (Mat.matmul (Mat.transpose vectors) vectors)

let test_eigen_power () =
  let a = random_spd rng 4 in
  let dec = Eigen.symmetric a in
  let half = Eigen.power dec 0.5 in
  approx_mat ~eps:1e-8 "sqrt squared" a (Mat.matmul half half);
  let inv_half = Eigen.power dec (-0.5) in
  approx_mat ~eps:1e-7 "A^½ A^-½ = I" (Mat.identity 4)
    (Mat.matmul half inv_half)

let test_eigen_power_clamp () =
  (* Singular matrix: negative powers stay finite thanks to clamping. *)
  let a = diag [| 1.0; 0.0 |] in
  let dec = Eigen.symmetric a in
  let m = Eigen.power ~clamp:1e-6 dec (-0.5) in
  approx "regular direction" 1.0 (Mat.get m 0 0);
  approx ~eps:1.0 "clamped direction" 1e3 (Mat.get m 1 1)

let test_eigen_not_symmetric () =
  let a = Mat.of_arrays [| [| 1.0; 5.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.check_raises "asymmetric input rejected"
    (Invalid_argument "Eigen.symmetric: matrix is not symmetric") (fun () ->
      ignore (Eigen.symmetric a))

(* Inputs for the two eigen properties: plain random symmetric
   matrices, Q·diag(1,1,2,2,…)·Qᵀ (every eigenvalue repeated), a graded
   spectrum from 1e-8 to 1e2, the zero matrix, diagonal matrices with
   tied small-integer entries, and SPD matrices; sizes up to 64, the top
   of FastICA's m = 12–64. *)
let random_orthogonal d =
  (* Modified Gram–Schmidt on a Gaussian matrix. *)
  let q = Sider_rand.Sampler.normal_mat rng d d in
  let col_dot j k =
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      acc := !acc +. (Mat.get q i j *. Mat.get q i k)
    done;
    !acc
  in
  for j = 0 to d - 1 do
    for k = 0 to j - 1 do
      let p = col_dot j k in
      for i = 0 to d - 1 do
        Mat.set q i j (Mat.get q i j -. (p *. Mat.get q i k))
      done
    done;
    let norm = sqrt (col_dot j j) in
    for i = 0 to d - 1 do
      Mat.set q i j (Mat.get q i j /. norm)
    done
  done;
  q

let with_spectrum spectrum =
  let q = random_orthogonal (Array.length spectrum) in
  Mat.symmetrize (Mat.matmul (Mat.matmul q (diag spectrum)) (Mat.transpose q))

let eigen_input (kind, d) =
  match kind with
  | `Random -> random_sym rng d
  | `Repeated -> with_spectrum (Array.init d (fun i -> float_of_int (1 + (i / 2))))
  | `Graded ->
    with_spectrum
      (Array.init d (fun i ->
           let t = if d = 1 then 1.0 else float_of_int i /. float_of_int (d - 1) in
           10.0 ** (-8.0 +. (10.0 *. t))))
  | `Zero -> Mat.create d d
  | `Diagonal ->
    diag
      (Array.map (fun x -> Float.round (2.0 *. x))
         (Sider_rand.Sampler.normal_vec rng d))
  | `Spd -> random_spd rng d

let eigen_case_gen =
  let kinds = [ `Random; `Repeated; `Graded; `Zero; `Diagonal; `Spd ] in
  let name = function
    | `Random -> "random" | `Repeated -> "repeated" | `Graded -> "graded"
    | `Zero -> "zero" | `Diagonal -> "diagonal" | `Spd -> "spd"
  in
  QCheck.(
    pair (make ~print:name (Gen.oneofl kinds)) (int_range 1 64))

(* ‖A − VΛVᵀ‖_F ≤ 1e-12·n·max(1, ‖A‖_F) and ‖VᵀV − I‖_F ≤ 1e-12·n; for
   positive-definite inputs, P = A^(-1/2) whitens: ‖PAP − I‖_F stays
   within 1e-12·n times the condition number. *)
let prop_eigen_reconstruct =
  qcheck ~count:60 "eigen reconstruction (random symmetric)" eigen_case_gen
    (fun ((kind, d) as case) ->
      let a = eigen_input case in
      let fd = float_of_int d in
      let dec = Eigen.symmetric a in
      let v = dec.Eigen.vectors in
      let recon = Mat.frobenius (Mat.sub a (reconstruct dec)) in
      let ortho = Mat.frobenius (Mat.sub (Mat.matmul (Mat.transpose v) v) (Mat.identity d)) in
      let whitens =
        match kind with
        | `Repeated | `Graded | `Spd ->
          let p = Eigen.power dec (-0.5) in
          let pap = Mat.matmul (Mat.matmul p a) p in
          let cond = dec.Eigen.values.(0) /. dec.Eigen.values.(d - 1) in
          Mat.frobenius (Mat.sub pap (Mat.identity d)) <= 1e-12 *. fd *. cond
        | `Random | `Zero | `Diagonal -> true
      in
      recon <= 1e-12 *. fd *. Float.max 1.0 (Mat.frobenius a)
      && ortho <= 1e-12 *. fd
      && whitens)

(* Decreasing eigenvalues, and each eigenvector signed so that its
   largest-magnitude entry is positive, the lowest index winning ties. *)
let prop_eigen_values_sorted =
  qcheck ~count:60 "eigenvalues sorted decreasing" eigen_case_gen
    (fun case ->
      let { Eigen.values; vectors } = Eigen.symmetric (eigen_input case) in
      let d = Array.length values in
      let sorted = ref true and signed = ref true in
      for i = 0 to d - 2 do
        if values.(i) < values.(i + 1) then sorted := false
      done;
      for j = 0 to d - 1 do
        let lead = ref 0 in
        for i = 1 to d - 1 do
          if Float.abs (Mat.get vectors i j) > Float.abs (Mat.get vectors !lead j)
          then lead := i
        done;
        if not (Mat.get vectors !lead j > 0.0) then signed := false
      done;
      !sorted && !signed)

let test_eigen_non_finite () =
  (* A NaN or an infinity anywhere: the call returns, without raising or
     looping. *)
  List.iter
    (fun (i, j, x) ->
      let a = random_sym rng 12 in
      Mat.set a i j x;
      Mat.set a j i x;
      ignore (Eigen.symmetric a))
    [ (3, 7, Float.nan); (5, 5, Float.nan); (0, 11, Float.infinity);
      (11, 11, Float.neg_infinity) ]

(* --- SVD ------------------------------------------------------------------ *)

let test_svd_orthogonal_v () =
  let a = Sider_rand.Sampler.normal_mat rng 10 5 in
  let v, _ = Svd.principal_directions a in
  approx_mat ~eps:1e-9 "VᵀV = I" (Mat.identity 5)
    (Mat.matmul (Mat.transpose v) v)

let test_principal_directions () =
  (* Points spread along (1,1): leading direction should be ±(1,1)/√2. *)
  let a =
    Mat.of_arrays
      [| [| 1.0; 1.0 |]; [| 2.0; 2.1 |]; [| 3.0; 2.9 |]; [| -1.0; -1.05 |] |]
  in
  let dirs, vals = Svd.principal_directions a in
  check_true "leading variance largest" (vals.(0) > vals.(1));
  let lead = Mat.col dirs 0 in
  approx ~eps:1e-2 "direction (1,1)" 1.0
    (Float.abs (Vec.dot lead (Vec.normalize [| 1.0; 1.0 |])))

(* --- LU / Woodbury --------------------------------------------------------- *)

let test_lu_solve () =
  let a = Mat.of_arrays [| [| 0.0; 2.0 |]; [| 1.0; 1.0 |] |] in
  (* Needs pivoting (zero leading pivot). *)
  approx_vec ~eps:1e-12 "solve with pivoting" [| 1.0; 2.0 |]
    (Mat.mv (Linsolve.inverse a) [| 4.0; 3.0 |])

let test_lu_inverse_det () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  approx_mat ~eps:1e-12 "inverse"
    (Mat.of_arrays [| [| -2.0; 1.0 |]; [| 1.5; -0.5 |] |])
    (Linsolve.inverse a)

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Linsolve.inverse a))

let test_woodbury_identity () =
  (* (Σ⁻¹ + λwwᵀ)⁻¹ computed by Woodbury must equal direct inversion. *)
  let sigma = random_spd rng 5 in
  let w = Sider_rand.Sampler.normal_vec rng 5 in
  let lambda = 0.7 in
  let updated = Linsolve.woodbury_rank1 sigma lambda w in
  let direct =
    let prec = Linsolve.inverse sigma in
    Mat.rank1_update prec lambda w;
    Linsolve.inverse prec
  in
  approx_mat ~eps:1e-7 "woodbury = direct" direct updated

let test_woodbury_negative_lambda () =
  let sigma = Mat.identity 2 in
  let w = [| 1.0; 0.0 |] in
  (* λ = -0.5 keeps 1 + λwᵀΣw = 0.5 > 0: variance doubles along w. *)
  let updated = Linsolve.woodbury_rank1 sigma (-0.5) w in
  approx ~eps:1e-12 "variance grows" 2.0 (Mat.get updated 0 0);
  Alcotest.check_raises "indefinite rejected"
    (Invalid_argument "Linsolve.woodbury_rank1: update makes matrix indefinite")
    (fun () -> ignore (Linsolve.woodbury_rank1 sigma (-1.0) w))

let prop_lu_solve_random =
  qcheck ~count:30 "LU solves random systems" QCheck.(int_range 1 8)
    (fun d ->
      let a =
        Mat.init d d (fun i j ->
            Mat.get (Sider_rand.Sampler.normal_mat rng d d) i j
            +. if i = j then 3.0 else 0.0)
      in
      let x = Sider_rand.Sampler.normal_vec rng d in
      let b = Mat.mv a x in
      vec_approx_equal ~eps:1e-6 x (Mat.mv (Linsolve.inverse a) b))

let prop_woodbury_random =
  qcheck ~count:30 "Woodbury equals direct inversion" QCheck.(int_range 1 6)
    (fun d ->
      let sigma = random_spd rng d in
      let w = Sider_rand.Sampler.normal_vec rng d in
      let lambda = Float.abs (Sider_rand.Sampler.normal rng) in
      let updated = Linsolve.woodbury_rank1 sigma lambda w in
      let direct =
        let prec = Linsolve.inverse sigma in
        Mat.rank1_update prec lambda w;
        Linsolve.inverse prec
      in
      mat_approx_equal ~eps:1e-5 direct updated)

let suite =
  [
    case "cholesky 2x2 known" test_chol_known;
    case "cholesky reconstructs" test_chol_reconstruct;
    case "cholesky rejects indefinite" test_chol_not_pd;
    case "cholesky PSD tolerant" test_chol_psd;
    case "cholesky solve" test_chol_solve;
    case "cholesky inverse" test_chol_inverse;
    case "eigen of diagonal" test_eigen_diag;
    case "eigen 2x2 known" test_eigen_known;
    case "eigen reconstructs" test_eigen_reconstruct;
    case "eigenvectors orthonormal" test_eigen_orthonormal;
    case "matrix powers" test_eigen_power;
    case "power clamps singular values" test_eigen_power_clamp;
    case "eigen rejects asymmetric" test_eigen_not_symmetric;
    prop_eigen_reconstruct;
    prop_eigen_values_sorted;
    case "svd right vectors orthonormal" test_svd_orthogonal_v;
    case "principal directions" test_principal_directions;
    case "lu solve with pivoting" test_lu_solve;
    case "lu inverse and det" test_lu_inverse_det;
    case "lu singular raises" test_lu_singular;
    case "woodbury identity" test_woodbury_identity;
    case "woodbury negative lambda" test_woodbury_negative_lambda;
    prop_lu_solve_random;
    prop_woodbury_random;
    case "eigen returns on non-finite input" test_eigen_non_finite;
  ]
