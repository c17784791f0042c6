(* Per-layer metrics of a traced run, each named after the module whose
   work it measures.  Four sources: the service's own /metrics (scraped
   before and after the measured phase and diffed), the update
   responses, the load generator, and the in-process replay's spans. *)

module Http = Sider_serve.Http

(* --- /metrics ------------------------------------------------------------------ *)

type scrape = (string, float) Hashtbl.t

(* Prometheus text: "name{labels} value" per sample line. *)
let scrape ~port : scrape =
  let tbl = Hashtbl.create 256 in
  (match Http.request ~timeout_s:30.0 ~meth:"GET" ~port "/metrics" with
   | Ok { Http.status = 200; r_body; _ } ->
     List.iter
       (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | Some i -> (
             match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
             | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
             | None -> ())
           | None -> ())
       (String.split_on_char '\n' r_body)
   | _ -> failwith "GET /metrics failed");
  tbl

let delta before after key =
  let get t = Option.value ~default:0.0 (Hashtbl.find_opt t key) in
  get after -. get before

let ratio a b = if b > 0.0 then a /. b else 0.0

let stage s = Printf.sprintf "{stage=\"%s\"}" s

(* --- the list ------------------------------------------------------------------ *)

(* Span names of the traced replay; each gives a mean and p90 self time
   and a call count. *)
let span_layers =
  [ "Json.parse"; "Session.create"; "Session.constrain"; "Session.update_background";
    "Whiten.whiten"; "Solver.sample"; "View.ica"; "View.pca";
    "Session.recompute_view.unattributed"; "Session.scatter"; "Json.serialise";
    "Persist.journal_append"; "Persist.journal_load" ]

(* [listed] metrics are the per_layer metrics of BENCHMARK.json; the span
   call counts are printed and stored beside them as sample sizes. *)
type metric = { name : string; value : float; unit_ : string; listed : bool }

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Both read 0 on an empty sample (a layer the workload never reaches). *)
let p90 l = Bstats.quantile (Array.of_list l) 0.9

(* [rounds] are (service round, in-process round) pairs of the replayed
   sessions. *)
let compute ~before ~after ~(measured : Drive.entry list) ~send_lags
    ~(tr : Replay.tracer) ~rounds ~replay_wall =
  let d = delta before after in
  let mean_hist base labels = ratio (d (base ^ "_sum" ^ labels)) (d (base ^ "_count" ^ labels)) in
  let n_req = float_of_int (List.length measured) in
  let stage_sum = List.fold_left (fun acc s -> acc +. d ("sider_serve_stage_s_sum" ^ stage s)) 0.0
      [ "queue"; "journal"; "solve"; "project" ] in
  let client_s =
    List.fold_left
      (fun acc (e : Drive.entry) -> acc +. (Int64.to_float (Int64.sub e.recv e.sent) /. 1e9))
      0.0 measured
  in
  let reports = List.filter_map (fun (e : Drive.entry) -> e.report) measured in
  let updates = float_of_int (List.length reports) in
  let per_update f = ratio (float_of_int (List.fold_left (fun a r -> a + f r) 0 reports)) updates in
  let mean_bytes f =
    ratio (float_of_int (List.fold_left (fun a e -> a + f e) 0 measured)) n_req
  in
  let woodbury =
    List.map (fun k -> d ("sider_gauss_woodbury_" ^ k ^ "_total")) [ "fast"; "recompute"; "frozen" ]
  in
  let cached = d "sider_gauss_chol_cached_total" in
  let selfs = Replay.self_times tr in
  let span_values name =
    if name = "Session.recompute_view.unattributed" then tr.Replay.view_rest
    else List.filter_map (fun ((sp : Replay.span), s) -> if sp.name = name then Some s else None) selfs
  in
  let m ?(listed = true) name unit_ value = { name; value; unit_; listed } in
  let gaps = List.map (fun (svc, inproc) -> svc -. inproc) rounds in
  [ m "Service.queue_s" "s" (mean_hist "sider_serve_stage_s" (stage "queue"));
    m "Service.journal_s" "s" (mean_hist "sider_serve_stage_s" (stage "journal"));
    m "Service.solve_s" "s" (mean_hist "sider_serve_stage_s" (stage "solve"));
    m "Service.project_s" "s" (mean_hist "sider_serve_stage_s" (stage "project"));
    m "Service.shed" "count"
      (d "sider_serve_rejected_queue_full_total" +. d "sider_serve_deadline_expired_total");
    m "Service.unattributed_s" "s" (ratio (client_s -. stage_sum) n_req);
    m "Registry.evictions" "count" (d "sider_serve_evictions_total");
    m "Registry.rehydrations" "count" (d "sider_serve_rehydrations_total");
    m "Registry.compactions" "count" (d "sider_serve_compactions_total");
    m "Registry.compaction_s" "s" (mean_hist "sider_serve_compaction_s" "");
    m "Solver.warm_accept_ratio" "ratio"
      (if updates > 0.0 then
         1.0 -. ((d "sider_solver_warm_fallback_total" +. d "sider_solver_warm_rejected_total") /. updates)
       else 0.0);
    m "Gauss_params.woodbury_fast_ratio" "ratio"
      (ratio (d "sider_gauss_woodbury_fast_total") (List.fold_left ( +. ) 0.0 woodbury));
    m "Gauss_params.chol_cache_hit_ratio" "ratio"
      (ratio cached (cached +. d "sider_gauss_chol_factorize_total"));
    m "View.ica_restarts" "count" (d "sider_view_ica_restart_total");
    m "Solver.sweeps" "count" (per_update (fun r -> r.Drive.sweeps));
    m "Solver.warm_sweeps" "count" (per_update (fun r -> r.Drive.warm_sweeps));
    m "Solver.cold_sweeps" "count" (per_update (fun r -> r.Drive.cold_sweeps));
    m "client.bytes_out" "B" (mean_bytes (fun e -> String.length e.Drive.body));
    m "client.send_lag_p99_s" "s"
      (Bstats.quantile (Array.of_list send_lags) 0.99) ]
  @ List.concat_map
      (fun n ->
        let v = span_values n in
        [ m (n ^ "_s") "s" (mean v); m (n ^ "_p90_s") "s" (p90 v);
          m ~listed:false (n ^ "_calls") "count" (float_of_int (List.length v)) ])
      span_layers
  (* The round residual is a median, to set against round_p50_s. *)
  @ [ m "replay.unattributed_s" "s" (Bstats.median (Array.of_list gaps));
      m ~listed:false "replay.rounds" "count" (float_of_int (List.length rounds));
      m "trace.replay_wall_s" "s" replay_wall ]
