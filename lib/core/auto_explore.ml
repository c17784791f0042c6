open Sider_linalg
open Sider_rand

type iteration = {
  step : int;
  axis1_label : string;
  axis2_label : string;
  scores : float * float;
  selections : int array array;
  class_matches : (string * float) list array;
  solver_report : Sider_maxent.Solver.report;
}

type result = {
  iterations : iteration list;
  final_scores : float * float;
  stopped : [ `Converged | `Max_iterations | `Degraded of Sider_robust.Sider_error.t ];
}

(* k is chosen up to 6, and clusters under 8 points are dropped. *)
let k_max = 6

let min_size = 8

let mark_clusters ?rng ?(sample_cap = 1000) session =
  let rng = match rng with Some r -> r | None -> Rng.create 99 in
  let pts = Session.scatter session in
  let n = Array.length pts in
  let coords =
    Mat.init n 2 (fun i j ->
        if j = 0 then pts.(i).Session.x else pts.(i).Session.y)
  in
  (* Silhouette is O(n²): choose k on a subsample, fit on everything. *)
  let k =
    let idx =
      if n <= sample_cap then Array.init n Fun.id
      else Sider_rand.Sampler.sample_without_replacement rng sample_cap n
    in
    let sub = Mat.select_rows coords idx in
    let chosen = Sider_stats.Kmeans.choose_k ~k_max rng sub in
    Array.fold_left Stdlib.max 0 chosen.Sider_stats.Kmeans.assignment + 1
  in
  let fitted = Sider_stats.Kmeans.fit rng ~k coords in
  let buckets = Array.make k [] in
  Array.iteri
    (fun i c -> buckets.(c) <- i :: buckets.(c))
    fitted.Sider_stats.Kmeans.assignment;
  buckets
  |> Array.to_list
  |> List.filter_map (fun members ->
      if List.length members < min_size then None
      else Some (Array.of_list (List.rev members)))
  |> Array.of_list

let run ?(max_iterations = 6) ?(score_threshold = 0.01) ?(time_cutoff = 10.0)
    session =
  (* Own deterministic stream, NOT split from the session rng: the session
     stream must advance only through recorded interactions so that
     Persist replay reproduces it exactly. *)
  let rng = Rng.create 0x5eed in
  let rec loop step acc =
    let s1, s2 = Session.view_scores session in
    (* PCA goes blind once variance constraints are absorbed (every
       whitened direction has unit variance — paper Sec. II-C); before
       declaring convergence, check whether an ICA view still finds
       non-Gaussian structure and switch to it if so. *)
    let s1, s2 =
      if Float.abs s1 < score_threshold
         && Session.method_ session = Sider_projection.View.Pca
      then begin
        ignore (Session.recompute_view ~method_:Sider_projection.View.Ica session);
        Session.view_scores session
      end
      else (s1, s2)
    in
    if Float.abs s1 < score_threshold then
      { iterations = List.rev acc; final_scores = (s1, s2);
        stopped = `Converged }
    else if step > max_iterations then
      { iterations = List.rev acc; final_scores = (s1, s2);
        stopped = `Max_iterations }
    else begin
      let a1, a2 = Session.axis_labels ~top:5 session in
      let selections = mark_clusters ~rng session in
      let class_matches =
        Array.map (fun sel -> Session.class_match session sel) selections
      in
      Array.iter
        (fun sel -> Session.add_cluster_constraint session sel)
        selections;
      match Session.update_background ~time_cutoff session with
      | Error e ->
        (* The session rolled back to its checkpoint; the simulated
           analyst has nothing better to try, so stop at the last good
           state instead of crashing the exploration. *)
        { iterations = List.rev acc; final_scores = (s1, s2);
          stopped = `Degraded e }
      | Ok report ->
        ignore (Session.recompute_view session);
        let iter =
          { step; axis1_label = a1; axis2_label = a2; scores = (s1, s2);
            selections; class_matches; solver_report = report }
        in
        loop (step + 1) (iter :: acc)
    end
  in
  loop 1 []
