(* Fig. 5: the adversarial 3-point dataset.

   (a) exact solutions of Problem 1 under constraint sets C_A (Eq. 12)
       and C_B (Eq. 13);
   (b) convergence of (Σ₁)₁₁: one pass for Case A, ∝ 1/τ for Case B. *)

open Sider_linalg
open Sider_maxent
open Sider_data
open Bench_common

let axes_cluster data rows =
  [ Constr.linear ~data ~rows ~w:[| 1.0; 0.0 |] ();
    Constr.quadratic ~data ~rows ~w:[| 1.0; 0.0 |] ();
    Constr.linear ~data ~rows ~w:[| 0.0; 1.0 |] ();
    Constr.quadratic ~data ~rows ~w:[| 0.0; 1.0 |] () ]

let trace_sigma11 solver ~sweeps =
  let out = ref [] in
  let _ =
    Solver.solve ~max_sweeps:sweeps ~lambda_tol:0.0 ~param_tol:0.0
      ~trace:(fun _ ->
        out :=
          Mat.get (Solver.row_params solver 0).Gauss_params.sigma 0 0 :: !out)
      solver
  in
  Array.of_list (List.rev !out)

let run () =
  header "fig5" "adversarial 3-point data: exact solutions and convergence";
  let data = Dataset.matrix (Synth.adversarial ()) in

  subhead "Case A (Eq. 12)";
  let sa = Solver.create data (axes_cluster data [| 0; 2 |]) in
  let trace_a = trace_sigma11 sa ~sweeps:1000 in
  let p1 = Solver.row_params sa 0 in
  let p2 = Solver.row_params sa 1 in
  compare_line ~label:"m1 = m3" ~paper:"(1/2, 0)"
    ~ours:(Printf.sprintf "(%.4f, %.4f)" p1.Gauss_params.mean.(0)
             p1.Gauss_params.mean.(1));
  compare_line ~label:"Σ1 diagonal" ~paper:"(1/4, 0)"
    ~ours:(Printf.sprintf "(%.4f, %.2g)" (Mat.get p1.Gauss_params.sigma 0 0)
             (Mat.get p1.Gauss_params.sigma 1 1));
  compare_line ~label:"m2 / Σ2" ~paper:"(0,0) / I"
    ~ours:(Printf.sprintf "(%.2g, %.2g) / diag(%.3f, %.3f)"
             p2.Gauss_params.mean.(0) p2.Gauss_params.mean.(1)
             (Mat.get p2.Gauss_params.sigma 0 0)
             (Mat.get p2.Gauss_params.sigma 1 1));
  compare_line ~label:"(Σ1)11 settles after" ~paper:"~1 pass"
    ~ours:(Printf.sprintf "pass 1 value %.4f (final %.4f)" trace_a.(0)
             trace_a.(Array.length trace_a - 1));

  subhead "Case B (Eq. 13)";
  let sb =
    Solver.create data
      (axes_cluster data [| 0; 2 |] @ axes_cluster data [| 1; 2 |])
  in
  let trace_b = trace_sigma11 sb ~sweeps:1000 in
  let q1 = Solver.row_params sb 0 in
  let q2 = Solver.row_params sb 1 in
  let q3 = Solver.row_params sb 2 in
  compare_line ~label:"means → data points" ~paper:"(1,0) (0,1) (0,0)"
    ~ours:(Printf.sprintf "(%.3f,%.3f) (%.3f,%.3f) (%.3f,%.3f)"
             q1.Gauss_params.mean.(0) q1.Gauss_params.mean.(1)
             q2.Gauss_params.mean.(0) q2.Gauss_params.mean.(1)
             q3.Gauss_params.mean.(0) q3.Gauss_params.mean.(1));
  compare_line ~label:"variances → 0" ~paper:"Σ = 0 (singular optimum)"
    ~ours:(Printf.sprintf "(Σ1)11 after 1000 sweeps: %.2g"
             trace_b.(Array.length trace_b - 1));

  subhead "Fig. 5b convergence curve";
  let sample_at = [ 1; 3; 10; 30; 100; 300; 1000 ] in
  Printf.printf "  iterations : %s\n"
    (String.concat " " (List.map (Printf.sprintf "%8d") sample_at));
  let line trace =
    String.concat " "
      (List.map (fun i -> Printf.sprintf "%8.2g" trace.(i - 1)) sample_at)
  in
  Printf.printf "  Case A     : %s\n" (line trace_a);
  Printf.printf "  Case B     : %s\n" (line trace_b);
  let slope =
    (log trace_b.(999) -. log trace_b.(9)) /. (log 1000.0 -. log 10.0)
  in
  compare_line ~label:"Case B log-log slope of (Σ1)11 vs τ"
    ~paper:"-1 ((Σ1)11 ∝ 1/τ)" ~ours:(Printf.sprintf "%.3f" slope);

  let csv =
    let b = Buffer.create 4096 in
    Buffer.add_string b "iteration,case_a,case_b\n";
    Array.iteri
      (fun i va ->
        Buffer.add_string b
          (Printf.sprintf "%d,%.8g,%.8g\n" (i + 1) va trace_b.(i)))
      trace_a;
    Buffer.contents b
  in
  artifact "fig5b_convergence.csv" csv
