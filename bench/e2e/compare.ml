(* --compare PARENT_DIR CHANGE_DIR: the end-to-end gate.  Each directory
   holds result files of repeated runs of one commit; runs are paired by
   seed (in order where seeds do not match).  For every (workload,
   metric) pair it prints both sides' median and quartiles, the pairwise
   wins and a verdict (Bstats.verdict).  The direction of each metric comes
   from the result files; the regression bound of a gated metric from
   BENCHMARK.json, and a metric BENCHMARK.json does not list is compared
   without one.  A higher error ratio is flagged on its own.  Exits 1 on
   any regression or higher error ratio. *)

open Sider_data

type metric = { value : float; better : Bstats.direction }

type run = { workload : string; seed : int; error_ratio : float; metrics : (string * metric) list }

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(* Result files under [dir], subdirectories included. *)
let rec load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then load_dir path
      else if not (Filename.check_suffix f ".json") then []
      else
        Option.to_list @@
        match read_json path with
        | exception (Sys_error _ | Json.Parse_error _) -> None
        | j -> (
          match Json.member_opt "schema" j with
          | Some (Json.String "sider-e2e/1") ->
            let num k = Json.to_float (Json.member k j) in
            Some
              { workload = Json.to_str (Json.member "workload" j);
                seed = Json.to_int (Json.member "seed" j);
                error_ratio = num "error_ratio";
                metrics =
                  List.map
                    (fun (k, v) ->
                      ( k,
                        { value = Json.to_float (Json.member "value" v);
                          better = Bstats.direction_of_string (Json.to_str (Json.member "better" v)) } ))
                    (match Json.member "metrics" j with Json.Obj l -> l | _ -> []) }
          | _ -> None))

(* The regression bound of every gated (end_to_end) metric. *)
let bounds () =
  match read_json "BENCHMARK.json" with
  | exception Sys_error _ -> failwith "BENCHMARK.json not found in the working directory"
  | j ->
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)))
      (Json.to_list (Json.member "end_to_end" j))

let pair_runs parent change =
  let by_seed = List.filter_map (fun p ->
      Option.map (fun c -> (p, c)) (List.find_opt (fun c -> c.seed = p.seed) change)) parent
  in
  if by_seed <> [] then by_seed
  else List.filteri (fun i _ -> i < min (List.length parent) (List.length change)) parent
       |> List.mapi (fun i p -> (p, List.nth change i))

let run parent_dir change_dir =
  let parent = load_dir parent_dir and change = load_dir change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  let bounds = bounds () in
  let bad = ref 0 in
  Printf.printf "%-17s %-15s %-29s %-29s %-6s %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun wl ->
      let p = List.filter (fun r -> r.workload = wl) parent in
      let c = List.filter (fun r -> r.workload = wl) change in
      let pairs = pair_runs p c in
      let names = match p @ c with r :: _ -> List.map fst r.metrics | [] -> [] in
      List.iter
        (fun name ->
          let value r = Option.map (fun m -> m.value) (List.assoc_opt name r.metrics) in
          let vals rs = Array.of_list (List.filter_map value rs) in
          let pv = vals p and cv = vals c in
          if Array.length pv > 0 && Array.length cv > 0 then (
            let dir = (List.assoc name (List.hd (p @ c)).metrics).better in
            let bound = List.assoc_opt name bounds in
            let pp =
              List.filter_map
                (fun (a, b) ->
                  match (value a, value b) with Some x, Some y -> Some (x, y) | _ -> None)
                pairs
            in
            let v = Bstats.verdict ~dir ~bound ~parent:pv ~change:cv pp in
            if v = Bstats.Regression then incr bad;
            let show a =
              let q1, q2, q3 = Bstats.quartiles a in
              Printf.sprintf "%.6g [%.6g, %.6g]" q2 q1 q3
            in
            Printf.printf "%-17s %-15s %-29s %-29s %2d/%-3d %s%s\n" wl name (show pv) (show cv)
              (Bstats.wins dir pp) (List.length pp) (Bstats.verdict_name v)
              (if bound = None then " (not gated)" else "")))
        names;
      let worst rs = List.fold_left (fun a r -> Float.max a r.error_ratio) 0.0 rs in
      if worst c > worst p then (
        incr bad;
        Printf.printf "%-17s error_ratio rose from %g to %g\n" wl (worst p) (worst c)))
    workloads;
  if parent = [] || change = [] then (
    prerr_endline "compare: no result files on one side"; 2)
  else if !bad > 0 then 1
  else 0
