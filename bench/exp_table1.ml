(* Table I + Fig. 4: ICA scores of the X̂5 example across the three
   exploration iterations, and Fig. 3 / Fig. 6 pairplots as artifacts.

   Paper Table I:
     Fig. 4a,b:  0.041  0.037  0.035  0.034 -0.015
     Fig. 4c:    0.037  0.017  0.004 -0.003 -0.002
     Fig. 4d:   -0.008  0.004 -0.003  0.003 -0.002

   The shape to reproduce: iteration 1 scores all large (two cluster
   structures visible), iteration 2 has two leading scores (dims 4-5
   structure), iteration 3 is at the noise floor. *)

open Sider_linalg
open Sider_data
open Sider_core
open Sider_projection
open Bench_common

let ica_scores session =
  let y = Whiten.whiten (Session.solver session) in
  (Fastica.fit (Sider_rand.Rng.create 7) y).Fastica.scores

let mark session groups names =
  List.iter
    (fun g ->
      let rows = ref [] in
      Array.iteri (fun i x -> if String.equal x g then rows := i :: !rows) groups;
      Session.add_cluster_constraint session (Array.of_list !rows))
    names

let whitened_pairplot session name =
  let y = Whiten.whiten (Session.solver session) in
  let colors =
    Option.map Sider_viz.Pairplot.class_colors
      (Dataset.labels (Session.dataset session))
  in
  artifact name
    (Sider_viz.Pairplot.render ~max_points:250
       ~columns:(Dataset.columns (Session.dataset session)) ?colors y)

let run () =
  header "table1+fig3+fig4+fig6" "X̂5 running example: ICA score decay";
  let { Synth.data; group13; group45 } = Synth.x5 ~seed:3 () in
  let session = Session.create ~seed:5 ~method_:View.Ica data in

  artifact "fig3_x5_pairplot.svg"
    (Sider_viz.Pairplot.render ~max_points:250 ~columns:(Dataset.columns data)
       ~colors:(Sider_viz.Pairplot.class_colors group13)
       (Session.data session));

  subhead "iteration 0 (Fig. 4a)";
  let sc0 = ica_scores session in
  compare_line ~label:"ICA scores, sorted by |.|"
    ~paper:"0.041 0.037 0.035 0.034 -0.015" ~ours:(fmt_scores sc0);
  let a1, a2 = Session.axis_labels ~top:5 session in
  Printf.printf "  %s\n  %s\n" a1 a2;
  whitened_pairplot session "fig6a_whitened_initial.svg";

  subhead "iteration 1: after 4 cluster constraints (Fig. 4c)";
  mark session group13 [ "A"; "B"; "C"; "D" ];
  ignore (Session.update_background_exn session);
  ignore (Session.recompute_view session);
  let sc1 = ica_scores session in
  compare_line ~label:"ICA scores"
    ~paper:"0.037 0.017 0.004 -0.003 -0.002" ~ours:(fmt_scores sc1);
  let a1, a2 = Session.axis_labels ~top:5 session in
  Printf.printf "  %s\n  %s\n" a1 a2;
  let v = Session.current_view session in
  let load45 (w : Vec.t) = Float.abs w.(3) +. Float.abs w.(4) in
  compare_line ~label:"axes load on X4/X5"
    ~paper:"±0.71 X4, X5"
    ~ours:(Printf.sprintf "%.2f, %.2f (sum |loading|)"
             (load45 v.View.axis1.View.direction)
             (load45 v.View.axis2.View.direction));
  whitened_pairplot session "fig6b_whitened_4clusters.svg";

  subhead "iteration 2: after 7 cluster constraints (Fig. 4d)";
  mark session group45 [ "E"; "F"; "G" ];
  ignore (Session.update_background_exn session);
  ignore (Session.recompute_view session);
  let sc2 = ica_scores session in
  compare_line ~label:"ICA scores (noise floor)"
    ~paper:"-0.008 0.004 -0.003 0.003 -0.002" ~ours:(fmt_scores sc2);
  whitened_pairplot session "fig6c_whitened_final.svg";

  subhead "shape checks";
  let top a = Float.abs a.(0) in
  check_line ~label:"score decay top|it0| > top|it1| > top|it2|"
    ~paper:"0.041 > 0.037 > 0.008"
    ~ours:(Printf.sprintf "%.3f > %.3f > %.3f" (top sc0) (top sc1) (top sc2))
    (top sc0 > top sc1 && top sc1 > top sc2);
  let y = Whiten.whiten (Session.solver session) in
  let dev = Mat.frobenius (Mat.sub (Mat.covariance y) (Mat.identity 5)) in
  compare_line ~label:"final whitened cov deviation ||.||_F"
    ~paper:"≈ unit sphere" ~ours:(Printf.sprintf "%.3f" dev);

  (* Machine-readable record for EXPERIMENTS.md. *)
  let csv =
    let row name s =
      name ^ ","
      ^ String.concat "," (Array.to_list (Array.map string_of_float s))
    in
    String.concat "\n"
      [ "iteration,s1,s2,s3,s4,s5"; row "fig4ab" sc0; row "fig4c" sc1;
        row "fig4d" sc2 ]
    ^ "\n"
  in
  artifact "table1_ica_scores.csv" csv
