(* Constraints, partition, Gauss parameters and the MaxEnt solver —
   including the paper's exact adversarial solutions (Fig. 5 / Eqs. 11-13). *)

open Sider_linalg
open Sider_maxent
open Test_helpers

let rng = Sider_rand.Rng.create 2023

(* --- Constr -------------------------------------------------------------- *)

let data3 =
  Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |]

let test_linear_target () =
  let c = Constr.linear ~data:data3 ~rows:[| 0; 2 |] ~w:[| 1.0; 0.0 |] () in
  approx "Σ wᵀx over I" 1.0 c.Constr.target;
  approx "shift zero" 0.0 c.Constr.shift

let test_quadratic_target () =
  let c = Constr.quadratic ~data:data3 ~rows:[| 0; 2 |] ~w:[| 1.0; 0.0 |] () in
  (* Values 1 and 0, mean 1/2: Σ(x−m̂)² = 1/4 + 1/4. *)
  approx "target" 0.5 c.Constr.target;
  approx "shift is data mean" 0.5 c.Constr.shift

let test_eval_on_observed () =
  let c = Constr.quadratic ~data:data3 ~rows:[| 0; 1; 2 |] ~w:[| 0.6; 0.8 |] () in
  approx ~eps:1e-12 "eval(X̂) = target" c.Constr.target (Constr.eval c data3)

let test_rows_deduped () =
  let c = Constr.linear ~data:data3 ~rows:[| 2; 0; 0; 2 |] ~w:[| 1.0; 0.0 |] () in
  check_true "sorted distinct rows" (c.Constr.rows = [| 0; 2 |])

let test_rows_validated () =
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Constr: row index out of range") (fun () ->
      ignore (Constr.linear ~data:data3 ~rows:[| 5 |] ~w:[| 1.0; 0.0 |] ()));
  Alcotest.check_raises "empty rows" (Invalid_argument "Constr: empty row set")
    (fun () ->
      ignore (Constr.linear ~data:data3 ~rows:[||] ~w:[| 1.0; 0.0 |] ()))

let test_margin_count () =
  let cs = Constr.margin data3 in
  approx "2d constraints" 4.0 (float_of_int (List.length cs))

(* [Constr.margin] builds the same constraints, bit for bit, as one
   [linear] and one [quadratic] per column along its basis vector.  The
   columns hold exact zeros and a -0.0 around a zero mean, a constant,
   offsets of +1e3 and -1e3, and plain noise. *)
let test_margin_bits () =
  let n = 41 and d = 5 in
  let z = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 9) n d in
  let data =
    Mat.init n d (fun i j ->
        match j with
        | 0 -> [| 0.0; -0.0; 1.5; -1.5 |].(i mod 4)
        | 1 -> 2.5
        | 2 -> 1e3 +. Mat.get z i j
        | 3 -> -1e3 +. (0.01 *. Mat.get z i j)
        | _ -> 10.0 *. Mat.get z i j)
  in
  let rows = Array.init n Fun.id in
  let expected =
    List.concat
      (List.init d (fun j ->
           let w = Vec.basis d j and tag = Printf.sprintf "m:col%d" j in
           [ Constr.linear ~tag ~data ~rows ~w ();
             Constr.quadratic ~tag ~data ~rows ~w () ]))
  in
  let got = Constr.margin ~tag:"m" data in
  Alcotest.(check int) "2d constraints" (2 * d) (List.length got);
  List.iter2
    (fun (e : Constr.t) (g : Constr.t) ->
      check_true (e.Constr.tag ^ " kind") (e.Constr.kind = g.Constr.kind);
      Alcotest.(check string) "tag" e.Constr.tag g.Constr.tag;
      check_true (e.Constr.tag ^ " rows") (e.Constr.rows = g.Constr.rows);
      check_bits (e.Constr.tag ^ " w") e.Constr.w g.Constr.w;
      check_bits (e.Constr.tag ^ " target, shift")
        [| e.Constr.target; e.Constr.shift |]
        [| g.Constr.target; g.Constr.shift |])
    expected got

let test_cluster_count () =
  let cs = Constr.cluster ~data:data3 ~rows:[| 0; 1 |] () in
  approx "2d constraints" 4.0 (float_of_int (List.length cs));
  (* Directions are the cluster covariance eigenvectors: orthonormal. *)
  let ws =
    List.filter_map
      (fun c ->
        if c.Constr.kind = Constr.Quadratic then Some c.Constr.w else None)
      cs
  in
  (match ws with
   | [ w1; w2 ] ->
     approx ~eps:1e-9 "unit" 1.0 (Vec.norm2 w1);
     approx ~eps:1e-9 "orthogonal" 0.0 (Vec.dot w1 w2)
   | _ -> Alcotest.fail "expected 2 quadratic constraints")

let test_two_d_count () =
  let cs =
    Constr.two_d ~data:data3 ~rows:[| 0; 1 |] ~w1:[| 1.0; 0.0 |]
      ~w2:[| 0.0; 1.0 |] ()
  in
  approx "4 constraints" 4.0 (float_of_int (List.length cs))

(* --- Partition ------------------------------------------------------------ *)

let test_partition_no_constraints () =
  let p = Partition.of_constraints ~n:5 [||] in
  approx "single class" 1.0 (float_of_int (Partition.n_classes p));
  check_true "all rows member" (Partition.members p 0 = [| 0; 1; 2; 3; 4 |])

let test_partition_refinement () =
  let c1 = Constr.linear ~data:data3 ~rows:[| 0; 2 |] ~w:[| 1.0; 0.0 |] () in
  let c2 = Constr.linear ~data:data3 ~rows:[| 1; 2 |] ~w:[| 1.0; 0.0 |] () in
  let p = Partition.of_constraints ~n:3 [| c1; c2 |] in
  (* Signatures: row0 {c1}, row1 {c2}, row2 {c1,c2} → 3 classes. *)
  approx "3 classes" 3.0 (float_of_int (Partition.n_classes p));
  check_true "distinct classes"
    (Partition.class_of_row p 0 <> Partition.class_of_row p 1
     && Partition.class_of_row p 1 <> Partition.class_of_row p 2);
  (* Each constraint covers exactly two classes of size 1. *)
  let groups = Partition.classes_of_constraint p 0 in
  approx "2 groups" 2.0 (float_of_int (Array.length groups));
  Array.iter (fun (_, cnt) -> approx "singletons" 1.0 (float_of_int cnt)) groups

let test_partition_shared_class () =
  let c1 = Constr.linear ~data:data3 ~rows:[| 0; 1; 2 |] ~w:[| 1.0; 0.0 |] () in
  let p = Partition.of_constraints ~n:3 [| c1 |] in
  approx "one class" 1.0 (float_of_int (Partition.n_classes p));
  let groups = Partition.classes_of_constraint p 0 in
  check_true "full class multiplicity" (groups = [| (0, 3) |])

let test_partition_counts_independent_of_n () =
  (* Same two constraints, many more rows: the class count stays 4
     (3 covered signatures + 1 uncovered catch-all). *)
  let big = Mat.init 1000 2 (fun i j -> float_of_int ((i * 2) + j)) in
  let c1 = Constr.linear ~data:big ~rows:[| 0; 2 |] ~w:[| 1.0; 0.0 |] () in
  let c2 = Constr.linear ~data:big ~rows:[| 1; 2 |] ~w:[| 1.0; 0.0 |] () in
  let p = Partition.of_constraints ~n:1000 [| c1; c2 |] in
  approx "4 classes" 4.0 (float_of_int (Partition.n_classes p))

(* Reference partition: the signature-hashing construction.  A row's
   signature is the list of the constraints covering it; a row scan
   gives each new signature the next class id.  [Partition] must agree
   exactly, numbering included, since the solver's sweep order and bits
   follow the class ids. *)
let reference_partition ~n constraints =
  let sigs = Array.make n [] in
  Array.iteri
    (fun c (constr : Constr.t) ->
      Array.iter (fun r -> sigs.(r) <- c :: sigs.(r)) constr.Constr.rows)
    constraints;
  let tbl : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let buckets : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let class_of_row = Array.make n (-1) in
  let next = ref 0 in
  for r = 0 to n - 1 do
    let cls =
      match Hashtbl.find_opt tbl sigs.(r) with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add tbl sigs.(r) c;
        Hashtbl.add buckets c (ref []);
        c
    in
    class_of_row.(r) <- cls;
    let bucket = Hashtbl.find buckets cls in
    bucket := r :: !bucket
  done;
  let members =
    Array.init !next (fun c ->
        Array.of_list (List.rev !(Hashtbl.find buckets c)))
  in
  let per_constraint =
    Array.map
      (fun (constr : Constr.t) ->
        let counts = Hashtbl.create 16 in
        Array.iter
          (fun r ->
            let c = class_of_row.(r) in
            Hashtbl.replace counts c
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
          constr.Constr.rows;
        (Hashtbl.fold (fun c cnt acc -> (c, cnt) :: acc) counts []
         [@sider.allow "determinism"])
        |> List.sort compare
        |> Array.of_list)
      constraints
  in
  (class_of_row, members, per_constraint)

(* Constraint lists of margins and clusters whose row sets are ranges
   (which overlap and nest), random sets, singletons, and repeats of an
   earlier cluster's rows. *)
let gen_partition_case =
  QCheck.Gen.(
    let* n = int_range 1 300 in
    let row = int_bound (n - 1) in
    let spec =
      frequency
        [ (1, return `Margin);
          (3, map2 (fun a b -> `Range (Int.min a b, Int.max a b)) row row);
          (2, map (fun l -> `Set l) (list_size (int_range 1 n) row));
          (1, map (fun r -> `Single r) row);
          (1, map (fun i -> `Repeat i) (int_bound 5)) ]
    in
    let* specs = list_size (int_range 0 6) spec in
    let* seed = int_bound 1_000_000 in
    return (n, specs, seed))

let print_partition_case (n, specs, seed) =
  let show = function
    | `Margin -> "margin"
    | `Range (a, b) -> Printf.sprintf "%d..%d" a b
    | `Set l -> Printf.sprintf "set(%d rows)" (List.length l)
    | `Single r -> Printf.sprintf "{%d}" r
    | `Repeat i -> Printf.sprintf "repeat %d" i
  in
  Printf.sprintf "n=%d seed=%d [%s]" n seed
    (String.concat "; " (List.map show specs))

let prop_partition_matches_reference =
  qcheck ~count:300 "partition: refinement equals signature hashing"
    (QCheck.make ~print:print_partition_case gen_partition_case)
    (fun (n, specs, seed) ->
      let data =
        Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create seed) n 2
      in
      let _, constraints =
        List.fold_left
          (fun (sets, acc) spec ->
            let rows =
              match spec with
              | `Margin -> None
              | `Range (a, b) -> Some (Array.init (b - a + 1) (fun i -> a + i))
              | `Set l -> Some (Array.of_list l)
              | `Single r -> Some [| r |]
              | `Repeat i ->
                if sets = [] then None
                else Some (List.nth sets (i mod List.length sets))
            in
            match rows with
            | None -> (sets, acc @ Constr.margin data)
            | Some rows -> (rows :: sets, acc @ Constr.cluster ~data ~rows ()))
          ([], []) specs
      in
      let constraints = Array.of_list constraints in
      let p = Partition.of_constraints ~n constraints in
      let class_of_row, members, per_constraint =
        reference_partition ~n constraints
      in
      Partition.n_classes p = Array.length members
      && Array.for_all Fun.id
           (Array.init n (fun r -> Partition.class_of_row p r = class_of_row.(r)))
      && Array.for_all Fun.id
           (Array.mapi (fun c m -> Partition.members p c = m) members)
      && Array.for_all Fun.id
           (Array.mapi
              (fun c g -> Partition.classes_of_constraint p c = g)
              per_constraint))

(* --- Gauss_params ----------------------------------------------------------- *)

let test_initial_params () =
  let p = Gauss_params.initial 3 in
  approx_vec "theta1" [| 0.0; 0.0; 0.0 |] p.Gauss_params.theta1;
  approx_vec "mean" [| 0.0; 0.0; 0.0 |] p.Gauss_params.mean;
  approx_mat "sigma" (Mat.identity 3) p.Gauss_params.sigma

let test_apply_linear () =
  let p = Gauss_params.initial 2 in
  Gauss_params.apply_linear p ~lambda:0.5 ~w:[| 1.0; 0.0 |];
  approx_vec "theta1 shifted" [| 0.5; 0.0 |] p.Gauss_params.theta1;
  approx_vec "mean = Σθ" [| 0.5; 0.0 |] p.Gauss_params.mean;
  approx_mat "sigma unchanged" (Mat.identity 2) p.Gauss_params.sigma

let test_apply_quadratic_matches_direct () =
  (* The O(d²) in-place update must equal recomputing the duals from the
     natural parameters by direct matrix inversion. *)
  let d = 5 in
  let p = Gauss_params.initial d in
  (* Give it a non-trivial starting state. *)
  Gauss_params.apply_linear p ~lambda:0.7 ~w:(Sider_rand.Sampler.normal_vec rng d);
  ignore
    (Gauss_params.apply_quadratic p ~lambda:0.9 ~delta:0.2
       ~w:(Vec.normalize (Sider_rand.Sampler.normal_vec rng d)));
  let w = Vec.normalize (Sider_rand.Sampler.normal_vec rng d) in
  let lambda = 1.3 and delta = -0.4 in
  (* Direct: θ₂ = Σ⁻¹ + λwwᵀ, θ₁ += λδw, then invert. *)
  let prec = Linsolve.inverse p.Gauss_params.sigma in
  Mat.rank1_update prec lambda w;
  let theta1' = Vec.copy p.Gauss_params.theta1 in
  Vec.axpy (lambda *. delta) w theta1';
  let sigma_direct = Linsolve.inverse prec in
  let mean_direct = Mat.mv sigma_direct theta1' in
  ignore (Gauss_params.apply_quadratic p ~lambda ~delta ~w);
  approx_mat ~eps:1e-8 "sigma" sigma_direct p.Gauss_params.sigma;
  approx_vec ~eps:1e-8 "mean" mean_direct p.Gauss_params.mean;
  approx_vec ~eps:1e-12 "theta1" theta1' p.Gauss_params.theta1

let test_apply_quadratic_indefinite () =
  (* λ = −1/c makes the Woodbury denominator vanish; the guarded kernel
     must take the full-recompute (or frozen) path and leave the class
     parameters finite rather than raising or emitting NaN. *)
  let p = Gauss_params.initial 2 in
  let outcome =
    Gauss_params.apply_quadratic p ~lambda:(-1.0) ~delta:0.0
      ~w:[| 1.0; 0.0 |]
  in
  check_true "not Sherman-Morrison" (outcome <> `Sherman_morrison);
  check_true "sigma finite"
    (Array.for_all Float.is_finite p.Gauss_params.sigma.Mat.a);
  check_true "mean finite" (Array.for_all Float.is_finite p.Gauss_params.mean)

(* --- Solver: paper's adversarial cases --------------------------------------- *)

let axes_cluster rows =
  [ Constr.linear ~data:data3 ~rows ~w:[| 1.0; 0.0 |] ();
    Constr.quadratic ~data:data3 ~rows ~w:[| 1.0; 0.0 |] ();
    Constr.linear ~data:data3 ~rows ~w:[| 0.0; 1.0 |] ();
    Constr.quadratic ~data:data3 ~rows ~w:[| 0.0; 1.0 |] () ]

let test_case_a_exact () =
  (* Paper Eq. 12: m1 = m3 = (1/2, 0), m2 = 0, Σ1 = Σ3 = diag(1/4, 0),
     Σ2 = I. *)
  let s = Solver.create data3 (axes_cluster [| 0; 2 |]) in
  let r = Solver.solve s in
  check_true "converged" r.Solver.converged;
  check_true "fast convergence (≲ one pass)" (r.Solver.sweeps <= 3);
  let p1 = Solver.row_params s 0 in
  let p2 = Solver.row_params s 1 in
  let p3 = Solver.row_params s 2 in
  approx_vec ~eps:1e-6 "m1" [| 0.5; 0.0 |] p1.Gauss_params.mean;
  approx_vec ~eps:1e-6 "m3" [| 0.5; 0.0 |] p3.Gauss_params.mean;
  approx_vec ~eps:1e-6 "m2" [| 0.0; 0.0 |] p2.Gauss_params.mean;
  approx ~eps:1e-6 "Σ1[0,0] = 1/4" 0.25 (Mat.get p1.Gauss_params.sigma 0 0);
  approx ~eps:1e-4 "Σ1[1,1] = 0" 0.0 (Mat.get p1.Gauss_params.sigma 1 1);
  approx_mat ~eps:1e-9 "Σ2 = I" (Mat.identity 2) p2.Gauss_params.sigma;
  check_true "rows 1 and 3 share a class"
    (Partition.class_of_row (Solver.partition s) 0
     = Partition.class_of_row (Solver.partition s) 2)

let solve_case_b ?(sweeps = 1000) () =
  let s = Solver.create data3 (axes_cluster [| 0; 2 |] @ axes_cluster [| 1; 2 |]) in
  let trace = ref [] in
  let _ =
    Solver.solve ~max_sweeps:sweeps ~lambda_tol:0.0 ~param_tol:0.0
      ~trace:(fun _ ->
        trace :=
          Mat.get (Solver.row_params s 0).Gauss_params.sigma 0 0 :: !trace)
      s
  in
  (s, Array.of_list (List.rev !trace))

let test_case_b_limits () =
  (* Paper Eq. 13: means go to the data points, variances to zero. *)
  let s, trace = solve_case_b () in
  let p1 = Solver.row_params s 0 in
  let p2 = Solver.row_params s 1 in
  let p3 = Solver.row_params s 2 in
  approx_vec ~eps:2e-3 "m1 → (1,0)" [| 1.0; 0.0 |] p1.Gauss_params.mean;
  approx_vec ~eps:2e-3 "m2 → (0,1)" [| 0.0; 1.0 |] p2.Gauss_params.mean;
  approx_vec ~eps:2e-3 "m3 → (0,0)" [| 0.0; 0.0 |] p3.Gauss_params.mean;
  check_true "variance collapsing" (trace.(Array.length trace - 1) < 1e-3)

let test_case_b_one_over_tau () =
  (* Fig. 5b: (Σ₁)₁₁ ∝ 1/τ — check the log-log slope between sweep 10 and
     sweep 1000 is ≈ −1. *)
  let _, trace = solve_case_b () in
  let v10 = trace.(9) and v1000 = trace.(999) in
  let slope = (log v1000 -. log v10) /. (log 1000.0 -. log 10.0) in
  approx ~eps:0.15 "slope −1" (-1.0) slope

(* --- Solver: constraint satisfaction ------------------------------------------ *)

let random_data n d = Sider_rand.Sampler.normal_mat rng n d

let test_margin_constraints_satisfied () =
  let data = random_data 40 3 in
  let cs = Constr.margin data in
  let s = Solver.create data cs in
  let r = Solver.solve s in
  check_true "converged" r.Solver.converged;
  check_true "all constraints met" (Solver.residual s < 1e-2)

(* With margin constraints only, the MaxEnt background is the product of
   one Gaussian per column with that column's mean and (1/n) variance:
   the model of the standardized data, whatever the shape, scale or
   offset of each column.  Tolerances are the fixed 60x2 case's, relative
   to each column's spread. *)
let test_margin_equals_standardization =
  let gen =
    QCheck.Gen.(
      quad (int_range 8 80) (int_range 1 8) (int_bound 1_000_000)
        (pair (float_range (-2.0) 2.0) (float_range (-100.0) 100.0)))
  in
  qcheck ~count:40 "margin equals standardization"
    (QCheck.make
       ~print:(fun (n, d, seed, (ls, off)) ->
         Printf.sprintf "n=%d d=%d seed=%d log10 scale=%g offset=%g" n d seed ls off)
       gen)
    (fun (n, d, seed, (log_scale, offset)) ->
      let r = Sider_rand.Rng.create seed in
      (* Column j has spread 10^(log_scale·j/d) and offset offset·(j+1). *)
      let z = Sider_rand.Sampler.normal_mat r n d in
      let data =
        Mat.init n d (fun i j ->
            let scale = 10.0 ** (log_scale *. float_of_int j /. float_of_int d) in
            (Mat.get z i j *. scale) +. (offset *. float_of_int (j + 1)))
      in
      let s = Solver.create data (Constr.margin data) in
      ignore (Solver.solve ~lambda_tol:1e-6 ~param_tol:1e-6 s);
      let means = Mat.col_means data and vars = Mat.col_variances data in
      List.for_all
        (fun row ->
          let p = Solver.row_params s row in
          let sigma = p.Gauss_params.sigma in
          let ok = ref true in
          for i = 0 to d - 1 do
            let sd = sqrt vars.(i) in
            if Float.abs (p.Gauss_params.mean.(i) -. means.(i)) > 1e-3 *. sd
               || Float.abs (Mat.get sigma i i -. vars.(i)) > 1e-2 *. vars.(i)
            then ok := false;
            for j = 0 to d - 1 do
              if i <> j && Mat.get sigma i j <> 0.0 then ok := false
            done
          done;
          !ok)
        [ 0; n - 1 ])

let test_one_cluster_equals_covariance () =
  (* The 1-cluster constraint makes the background covariance equal the
     full data covariance (paper Sec. II-A remark on whitening). *)
  let base = random_data 100 3 in
  (* Give the data some correlation. *)
  let mix = Mat.of_arrays [| [| 1.0; 0.4; 0.0 |]; [| 0.0; 1.0; 0.3 |];
                             [| 0.2; 0.0; 1.0 |] |] in
  let data = Mat.matmul base mix in
  let s = Solver.create data (Constr.one_cluster data) in
  ignore (Solver.solve ~lambda_tol:1e-8 ~param_tol:1e-8 ~max_sweeps:5000 s);
  let p = Solver.row_params s 0 in
  approx_mat ~eps:1e-3 "Σ_bg = cov(X)" (Mat.covariance data)
    p.Gauss_params.sigma;
  approx_vec ~eps:1e-3 "m_bg = mean(X)" (Mat.col_means data)
    p.Gauss_params.mean

let test_cluster_constraints_satisfied () =
  let ds = Sider_data.Synth.clustered ~seed:4 ~n:90 ~d:4 ~k:3 () in
  let data = Sider_data.Dataset.matrix ds in
  let cs =
    List.concat_map
      (fun cls ->
        Constr.cluster ~data
          ~rows:(Sider_data.Dataset.class_indices ds cls) ())
      (Sider_data.Dataset.classes ds)
  in
  let s = Solver.create data (Constr.margin data @ cs) in
  ignore (Solver.solve ~max_sweeps:3000 s);
  check_true "residual small" (Solver.residual s < 5e-2)

let test_expectation_identity () =
  (* E[f] computed from the class parameters must match a Monte-Carlo
     estimate over background samples. *)
  let data = random_data 30 2 in
  let c = Constr.quadratic ~data ~rows:[| 0; 3; 7 |] ~w:[| 0.8; 0.6 |] () in
  let s = Solver.create data [ c ] in
  ignore (Solver.solve s);
  let analytic = Solver.expectation s c in
  let mc_rng = Sider_rand.Rng.create 55 in
  let k = 4000 in
  let acc = ref 0.0 in
  for _ = 1 to k do
    acc := !acc +. Constr.eval c (Solver.sample s mc_rng)
  done;
  let mc = !acc /. float_of_int k in
  approx ~eps:(0.05 *. analytic) "analytic ≈ Monte-Carlo" analytic mc;
  approx ~eps:1e-3 "constraint satisfied" c.Constr.target analytic

let test_add_constraints_warm_start () =
  let data = random_data 50 3 in
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve s);
  let p_before = Gauss_params.copy (Solver.row_params s 0) in
  let s2 =
    Solver.add_constraints s
      (Constr.cluster ~data ~rows:(Array.init 10 Fun.id) ())
  in
  (* Parameters are inherited before re-solving. *)
  let p_after = Solver.row_params s2 0 in
  approx_vec ~eps:1e-12 "warm start inherits mean" p_before.Gauss_params.mean
    p_after.Gauss_params.mean;
  approx_mat ~eps:1e-12 "warm start inherits sigma" p_before.Gauss_params.sigma
    p_after.Gauss_params.sigma;
  ignore (Solver.solve s2);
  check_true "extended system solves" (Solver.residual s2 < 5e-2);
  (* Old margin constraints still hold after adding cluster constraints. *)
  List.iter
    (fun c ->
      approx ~eps:0.15 "margin persists" c.Constr.target
        (Solver.expectation s2 c))
    (Constr.margin data)

let test_no_constraints_prior () =
  let data = random_data 10 2 in
  let s = Solver.create data [] in
  let r = Solver.solve s in
  check_true "trivially converged" r.Solver.converged;
  let p = Solver.row_params s 5 in
  approx_mat "prior sigma" (Mat.identity 2) p.Gauss_params.sigma;
  approx_vec "prior mean" [| 0.0; 0.0 |] p.Gauss_params.mean

let test_time_cutoff () =
  (* With an absurdly small budget the solver must stop quickly and report
     non-convergence on the adversarial case. *)
  let s = Solver.create data3 (axes_cluster [| 0; 2 |] @ axes_cluster [| 1; 2 |]) in
  let r =
    Solver.solve ~max_sweeps:100_000_000 ~lambda_tol:0.0 ~param_tol:0.0
      ~time_cutoff:0.05 s
  in
  check_true "stopped by cutoff" (not r.Solver.converged);
  check_true "did not run to max sweeps" (r.Solver.sweeps < 100_000_000);
  check_true "stopped promptly" (r.Solver.elapsed < 2.0)

let test_sample_statistics () =
  (* Samples from the solved background must reproduce the constrained
     means. *)
  let data = random_data 40 2 in
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve ~lambda_tol:1e-6 ~param_tol:1e-6 s);
  let srng = Sider_rand.Rng.create 91 in
  let acc = Vec.create 2 in
  let k = 300 in
  for _ = 1 to k do
    Vec.axpy 1.0 (Mat.col_means (Solver.sample s srng)) acc
  done;
  approx_vec ~eps:0.05 "sample means match data"
    (Mat.col_means data)
    (Vec.scale (1.0 /. float_of_int k) acc)

(* [Solver.sample] against one [mean + chol·z] per member row, classes
   in order and rows ascending within a class, with [z] from the scalar
   polar loop: same bits, same generator state after.  Two overlapping
   cluster rounds on top of the margin split the rows into several
   classes of different sizes. *)
let test_sample_bits () =
  let n = 60 and d = 4 in
  let data = random_data n d in
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve s);
  let s =
    Solver.add_constraints s
      (Constr.cluster ~data ~rows:(Array.init 20 (fun i -> 3 * i)) ()
       @ Constr.cluster ~data ~rows:(Array.init 25 (fun i -> 30 + i)) ())
  in
  ignore (Solver.solve s);
  check_true "several classes" (Solver.n_classes s >= 4);
  let a = Sider_rand.Rng.create 5 and b = Sider_rand.Rng.create 5 in
  let got = Solver.sample s a in
  let expected = Mat.create n d in
  for cls = 0 to Solver.n_classes s - 1 do
    let p = Solver.class_params s cls in
    let chol = Chol.decompose_psd (Mat.symmetrize p.Gauss_params.sigma) in
    Array.iter
      (fun r ->
        let z = Array.init d (fun _ -> polar_normal b) in
        Mat.set_row expected r (Vec.add p.Gauss_params.mean (Mat.mv chol z)))
      (Partition.members (Solver.partition s) cls)
  done;
  check_bits "sample" expected.Mat.a got.Mat.a;
  Alcotest.(check (float 0.0)) "state after" (Sider_rand.Rng.float b)
    (Sider_rand.Rng.float a)

(* The first round of a session at the [projection_reads] benchmark
   workload's shape (n=1024, d=16): the margin constraints, adding them
   to the solver, the solve and a background sample allocate at most
   4·n·d words, the same count on a second run.  Counted with no
   telemetry sink, as the other allocation gates here: a live sink's
   lines (say [SIDER_TRACE=stderr]) print each span's duration, whose
   text, and so whose allocation, changes from run to run. *)
let test_first_round_allocation () =
  with_sink None @@ fun () ->
  let data =
    Sider_data.Dataset.matrix
      (Sider_data.Dataset.standardized
         (Sider_data.Synth.clustered ~seed:7919 ~n:1024 ~d:16 ~k:8 ()))
  in
  let n, d = Mat.dims data in
  let round () =
    let empty = Solver.create data [] in
    let cs, w_margin = allocated_words (fun () -> Constr.margin data) in
    let s, w_add = allocated_words (fun () -> Solver.add_constraints empty cs) in
    let _, w_solve = allocated_words (fun () -> Solver.solve s) in
    let _, w_sample =
      allocated_words (fun () -> Solver.sample s (Sider_rand.Rng.create 1))
    in
    [ w_margin; w_add; w_solve; w_sample ]
  in
  let first = round () in
  let total = List.fold_left ( + ) 0 first in
  if total > 4 * n * d then
    Alcotest.failf
      "first round allocated %d words (margin %d, add %d, solve %d, \
       sample %d), over 4nd = %d"
      total (List.nth first 0) (List.nth first 1) (List.nth first 2)
      (List.nth first 3) (4 * n * d);
  Alcotest.(check (list int)) "same count on a second run" first (round ())

(* --- Solver: the per-sweep record ------------------------------------------ *)

module Obs = Sider_obs.Obs
module Par = Sider_par.Par

(* Run [f] with a recording sink. *)
let with_recording f = with_sink (Some (Obs.recording_sink ()).Obs.rec_sink) f

let woodbury_counters () =
  List.map Obs.counter_value
    [ "gauss.woodbury.fast"; "gauss.woodbury.recompute";
      "gauss.woodbury.frozen" ]

let clustered_rounds () =
  let ds = Sider_data.Synth.clustered ~seed:3 ~n:90 ~d:4 ~k:3 () in
  let data = Sider_data.Dataset.matrix ds in
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve s);
  Solver.add_constraints s
    (Constr.cluster ~data
       ~rows:(Sider_data.Dataset.class_indices ds "c0") ())

(* One record per completed sweep, numbered from 1; the last one carries
   the report's deltas, bit for bit; the Woodbury tallies add up to what
   the counters gained. *)
let test_trace_record () =
  let s = clustered_rounds () in
  let records = ref [] in
  let before, report, after =
    with_recording (fun () ->
        let before = woodbury_counters () in
        let report = Solver.solve ~trace:(fun r -> records := r :: !records) s in
        (before, report, woodbury_counters ()))
  in
  let records = List.rev !records in
  check_true "several sweeps" (report.Solver.sweeps > 2);
  Alcotest.(check (list int)) "one record per sweep, numbered 1.."
    (List.init report.Solver.sweeps (fun i -> i + 1))
    (List.map (fun (r : Solver.sweep) -> r.sweep) records);
  let last = List.nth records (List.length records - 1) in
  check_bits "last max_dlambda" [| report.Solver.max_dlambda |]
    [| last.max_dlambda |];
  check_bits "last max_dparam" [| report.Solver.max_dparam |]
    [| last.max_dparam |];
  Alcotest.(check int) "last updates" report.Solver.updates last.updates;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 records in
  Alcotest.(check (list int)) "tallies = counter deltas"
    (List.map2 ( - ) after before)
    [ sum (fun (r : Solver.sweep) -> r.woodbury_fast);
      sum (fun (r : Solver.sweep) -> r.woodbury_recompute);
      sum (fun (r : Solver.sweep) -> r.woodbury_frozen) ];
  check_true "fast applies counted" (sum (fun r -> r.woodbury_fast) > 0)

(* A rolled-back sweep gets no record.  The NaN [Fault] injects at the
   start of sweep 3 is reset by the pre-sweep scan; a second class,
   poisoned by the callback after sweep 2, outlives that scan, so sweep
   3's first attempt produces NaN and is rolled back, and its retry
   resets that class too. *)
let test_trace_skips_rolled_back_sweep () =
  let module Fault = Sider_robust.Fault in
  let s = clustered_rounds () in
  check_true "two classes" (Solver.n_classes s >= 2);
  Fault.reset ();
  Fault.arm (Fault.Nan_in_class { sweep = 3; cls = 0 });
  let numbers = ref [] in
  let report, fired, rollbacks =
    with_recording @@ fun () ->
    Fun.protect ~finally:Fault.reset @@ fun () ->
    let before = Obs.counter_value "solver.rollback" in
    let report =
      Solver.solve
        ~trace:(fun r ->
          numbers := r.Solver.sweep :: !numbers;
          if r.Solver.sweep = 2 then
            (Solver.class_params s 1).Gauss_params.mean.(0) <- Float.nan)
        s
    in
    (report, Fault.fired (), Obs.counter_value "solver.rollback" - before)
  in
  Alcotest.(check int) "the injection fired" 1 (List.length fired);
  Alcotest.(check int) "one sweep rolled back" 1 rollbacks;
  check_true "converged" report.Solver.converged;
  Alcotest.(check (list int)) "records for completed sweeps only"
    (List.init report.Solver.sweeps (fun i -> i + 1))
    (List.rev !numbers)

(* Telemetry costs a service solve per sweep, not per update.  Run as
   `sider api` runs (one domain, the flight recorder on, no sink), the
   fifth-cluster round of an [ica_explore]-shaped session (margin and
   four cluster rounds first, untimed) may allocate at most 256 words
   per sweep more than the same round with the layer off, counted over
   the whole solve. *)
let test_recorder_sweep_allocation () =
  let module Session = Sider_core.Session in
  let domains = Par.domain_count () in
  let recorder = Obs.flight_recorder_enabled () in
  let capacity = (Obs.flight_stats ()).Obs.fr_capacity in
  Par.set_domains 1;
  with_sink None @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Obs.set_flight_recorder ~capacity recorder;
      Par.set_domains domains)
  @@ fun () ->
  let ds = Sider_data.Synth.clustered ~seed:7919 ~n:512 ~d:12 ~k:6 () in
  let session = Session.create ~seed:1 ds in
  let rows c = Sider_data.Dataset.class_indices ds (Printf.sprintf "c%d" c) in
  let round () =
    match Session.update_background ~time_cutoff:60.0 ~max_sweeps:500 session
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "round: %s" (Sider_robust.Sider_error.to_string e)
  in
  Session.add_margin_constraint session;
  round ();
  for c = 0 to 3 do
    Session.add_cluster_constraint session (rows c);
    round ()
  done;
  let fifth () =
    Solver.add_constraints (Session.solver session)
      (Constr.cluster ~data:(Session.data session) ~rows:(rows 4) ())
  in
  let measure s =
    allocated_words (fun () ->
        Solver.solve ~time_cutoff:60.0 ~max_sweeps:500 ~trace:ignore s)
  in
  Obs.set_flight_recorder ~capacity false;
  let off_report, off = measure (fifth ()) in
  Obs.set_flight_recorder ~capacity:512 true;
  let on_report, on = measure (fifth ()) in
  let sweeps = off_report.Solver.sweeps in
  Alcotest.(check int) "same sweeps" sweeps on_report.Solver.sweeps;
  check_true "a long round" (sweeps > 100);
  if on - off > 256 * sweeps then
    Alcotest.failf
      "recorder on allocated %d words over %d sweeps, %d more than off \
       (%d per sweep, at most 256)"
      on sweeps (on - off) ((on - off) / sweeps)

let test_mean_matrix () =
  let data = random_data 20 2 in
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve s);
  let mm = Solver.mean_matrix s in
  check_true "shape" (Mat.dims mm = (20, 2));
  (* All rows share the same class here. *)
  approx_vec ~eps:1e-12 "row means equal" (Mat.row mm 0) (Mat.row mm 19)

let prop_linear_constraint_exact_after_one_update =
  qcheck ~count:20 "a single linear constraint is met after one sweep"
    QCheck.(int_range 2 6)
    (fun d ->
      let data = random_data 20 d in
      let w = Vec.normalize (Sider_rand.Sampler.normal_vec rng d) in
      let c = Constr.linear ~data ~rows:[| 1; 4; 9 |] ~w () in
      let s = Solver.create data [ c ] in
      ignore (Solver.solve ~max_sweeps:1 ~lambda_tol:0.0 ~param_tol:0.0 s);
      Float.abs (Solver.expectation s c -. c.Constr.target) < 1e-9)

let prop_quadratic_constraint_exact_after_one_update =
  qcheck ~count:20 "a single quadratic constraint is met after one sweep"
    QCheck.(int_range 2 6)
    (fun d ->
      let data = random_data 20 d in
      let w = Vec.normalize (Sider_rand.Sampler.normal_vec rng d) in
      let c = Constr.quadratic ~data ~rows:[| 0; 2; 5; 11 |] ~w () in
      let s = Solver.create data [ c ] in
      ignore (Solver.solve ~max_sweeps:1 ~lambda_tol:0.0 ~param_tol:0.0 s);
      Float.abs (Solver.expectation s c -. c.Constr.target)
      < 1e-6 *. Float.max 1.0 c.Constr.target)

let prop_sigma_stays_symmetric_psd =
  qcheck ~count:15 "Σ stays symmetric PSD through solving"
    QCheck.(int_range 2 5)
    (fun d ->
      let ds = Sider_data.Synth.clustered ~seed:d ~n:30 ~d ~k:2 () in
      let data = Sider_data.Dataset.matrix ds in
      let cs =
        Constr.margin data
        @ Constr.cluster ~data ~rows:(Array.init 15 (fun i -> i * 2)) ()
      in
      let s = Solver.create data cs in
      ignore (Solver.solve ~max_sweeps:200 s);
      let ok = ref true in
      for cls = 0 to Solver.n_classes s - 1 do
        let sigma = (Solver.class_params s cls).Gauss_params.sigma in
        if not (Mat.is_symmetric ~eps:1e-6 sigma) then ok := false;
        let { Eigen.values; _ } = Eigen.symmetric (Mat.symmetrize sigma) in
        Array.iter (fun v -> if v < -1e-6 then ok := false) values
      done;
      !ok)

let test_relative_entropy_zero_prior () =
  let data = random_data 10 3 in
  let s = Solver.create data [] in
  approx ~eps:1e-12 "KL = 0 at the prior" 0.0 (Solver.relative_entropy s)

let test_relative_entropy_monotone () =
  (* Each additional constraint set moves the MaxEnt solution (weakly)
     further from the prior. *)
  let ds = Sider_data.Synth.clustered ~seed:8 ~n:60 ~d:3 ~k:3 () in
  let data = Sider_data.Dataset.matrix ds in
  let s0 = Solver.create data [] in
  ignore (Solver.solve s0);
  let kl0 = Solver.relative_entropy s0 in
  let s1 = Solver.add_constraints s0 (Constr.margin data) in
  ignore (Solver.solve ~lambda_tol:1e-5 ~param_tol:1e-5 s1);
  let kl1 = Solver.relative_entropy s1 in
  let s2 =
    Solver.add_constraints s1
      (Constr.cluster ~data
         ~rows:(Sider_data.Dataset.class_indices ds "c0") ())
  in
  ignore (Solver.solve ~lambda_tol:1e-5 ~param_tol:1e-5 ~max_sweeps:3000 s2);
  let kl2 = Solver.relative_entropy s2 in
  check_true "margin adds information" (kl1 > kl0 -. 1e-9);
  check_true "cluster adds more information" (kl2 > kl1 -. 1e-6)

let test_relative_entropy_closed_form () =
  (* One linear constraint shifting the mean by mu along a unit direction
     gives KL = mu^2 / 2 per affected row. *)
  let data = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 2.0; 0.0 |] |] in
  let c = Constr.linear ~data ~rows:[| 0; 1 |] ~w:[| 1.0; 0.0 |] () in
  let s = Solver.create data [ c ] in
  ignore (Solver.solve ~lambda_tol:1e-9 ~param_tol:1e-9 s);
  (* Mean along w becomes 2 for both rows: KL = 2 rows x 2^2/2 = 4. *)
  approx ~eps:1e-6 "KL closed form" 4.0 (Solver.relative_entropy s)

(* At [solve_d24]'s shape (its first dataset, n=512, d=24) the first
   cluster round's sweeps allocate no d×d matrix: the rollback snapshot
   is taken once per solve and refilled in place.  Each window is one
   sweep, from one record to the next; the first, which holds the
   snapshot itself, is not counted. *)
let test_sweep_major_allocation () =
  let ds = Sider_data.Synth.clustered ~seed:7919 ~n:512 ~d:24 ~k:6 () in
  let data = Sider_data.Dataset.matrix ds in
  let _, d = Mat.dims data in
  with_sink None @@ fun () ->
  let s = Solver.create data (Constr.margin data) in
  ignore (Solver.solve ~max_sweeps:500 s);
  let s =
    Solver.add_constraints s
      (Constr.cluster ~data
         ~rows:(Sider_data.Dataset.class_indices ds "c0") ())
  in
  let windows = ref [] and opened = ref (major_words ()) in
  let report =
    Solver.solve ~max_sweeps:500
      ~trace:(fun _ ->
        let now = major_words () in
        windows := (now -. !opened) :: !windows;
        opened := now)
      s
  in
  Alcotest.(check int) "one window per sweep" report.Solver.sweeps
    (List.length !windows);
  check_true "several sweeps" (report.Solver.sweeps > 2);
  List.iteri
    (fun i w ->
      if w >= float_of_int (d * d) then
        Alcotest.failf "sweep %d allocated %.0f words outside the minor heap \
                        (a %dx%d matrix is %d)" (i + 2) w d d (d * d))
    (List.tl (List.rev !windows))

let suite =
  [
    case "linear target" test_linear_target;
    case "quadratic target and shift" test_quadratic_target;
    case "eval on observed data" test_eval_on_observed;
    case "rows deduplicated" test_rows_deduped;
    case "rows validated" test_rows_validated;
    case "margin builds 2d constraints" test_margin_count;
    case "cluster builds 2d orthonormal constraints" test_cluster_count;
    case "2-D builds 4 constraints" test_two_d_count;
    case "margin equals per-column builders, bit for bit" test_margin_bits;
    case "partition: no constraints" test_partition_no_constraints;
    case "partition: refinement" test_partition_refinement;
    case "partition: shared class" test_partition_shared_class;
    case "partition: classes independent of n" test_partition_counts_independent_of_n;
    prop_partition_matches_reference;
    case "initial parameters are the prior" test_initial_params;
    case "linear update" test_apply_linear;
    case "quadratic update matches direct inversion" test_apply_quadratic_matches_direct;
    case "quadratic update rejects indefinite" test_apply_quadratic_indefinite;
    case "Case A exact solution (Eq. 12)" test_case_a_exact;
    case "Case B limits (Eq. 13)" test_case_b_limits;
    slow_case "Case B 1/tau convergence (Fig. 5b)" test_case_b_one_over_tau;
    case "margin constraints satisfied" test_margin_constraints_satisfied;
    test_margin_equals_standardization;
    case "1-cluster equals covariance" test_one_cluster_equals_covariance;
    case "cluster constraints satisfied" test_cluster_constraints_satisfied;
    case "expectation identity vs Monte-Carlo" test_expectation_identity;
    case "warm start on added constraints" test_add_constraints_warm_start;
    case "no constraints = prior" test_no_constraints_prior;
    case "time cutoff stops early" test_time_cutoff;
    case "background samples match means" test_sample_statistics;
    case "sample equals per-row mean + chol·z, bit for bit" test_sample_bits;
    case "first round allocates at most 4nd words" test_first_round_allocation;
    case "trace gets one record per completed sweep" test_trace_record;
    case "trace skips a rolled-back sweep" test_trace_skips_rolled_back_sweep;
    case "mean matrix" test_mean_matrix;
    case "recorder on allocates at most 256 words per sweep more"
      test_recorder_sweep_allocation;
    case "relative entropy: zero at prior" test_relative_entropy_zero_prior;
    case "relative entropy: monotone in constraints" test_relative_entropy_monotone;
    case "relative entropy: closed form" test_relative_entropy_closed_form;
    prop_linear_constraint_exact_after_one_update;
    prop_quadratic_constraint_exact_after_one_update;
    prop_sigma_stays_symmetric_psd;
    case "sweeps at d=24 allocate no d x d matrix"
      test_sweep_major_allocation;
  ]
