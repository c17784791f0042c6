(* sider_bench: the end-to-end benchmark of the session service.

   For each workload it spawns `sider api` as a child process, drives it
   from this process over one or two keep-alive connections, prints every
   end-to-end metric by name with its unit and sample count, checks the
   outputs, and writes a result file with the run's environment.
   [--trace 1] adds the per-layer metrics from a traced in-process
   replay; [--compare] is the gate between two sets of result files.
   See README.md for the workloads, metrics and how to run each mode. *)

open Sider_data
module Obs = Sider_obs.Obs
module Rng = Sider_rand.Rng
module Http = Sider_serve.Http

(* The service binary ([--service]); by default the one run.sh builds, as
   sider_bench runs from the root of the source tree. *)
let sider_exe = ref "_build/default/bin/sider_cli.exe"

let secs ns = Int64.to_float ns /. 1e9

let since t0 = secs (Int64.sub (Obs.now_ns ()) t0)

(* --- end-to-end metrics ------------------------------------------------------- *)

type e2e = {
  name : string;
  value : float;
  unit_ : string;
  better : Bstats.direction;
  gated : bool;  (** an end_to_end metric of BENCHMARK.json *)
  samples : int;
  stat : string;
  thin : bool;  (** a percentile with fewer than ten samples beyond it *)
}

(* A round runs from a constraint POST to the next projection (POST /view
   or GET /projection) in the same session; it fails if any of its
   requests did. *)
type round = { lat : float; round_ok : bool; traces : string list }

let rounds_of (s : Drive.session) =
  let acc = ref [] and cur = ref None in
  List.iter
    (fun (e : Drive.entry) ->
      if e.measured then
        match (e.route, !cur) with
        | Drive.Constrain, None -> cur := Some (e.due, Drive.ok e, [ e.trace ])
        | (Drive.Constrain | Drive.Update), Some (t0, ok, tr) ->
          cur := Some (t0, ok && Drive.ok e, e.trace :: tr)
        | (Drive.View | Drive.Projection), Some (t0, ok, tr) ->
          acc := { lat = secs (Int64.sub e.recv t0); round_ok = ok && Drive.ok e;
                   traces = e.trace :: tr } :: !acc;
          cur := None
        | _ -> ())
    (Drive.session_log s);
  List.rev !acc

let measured_entries (o : Drive.outcome) =
  List.concat_map (fun s -> List.filter (fun (e : Drive.entry) -> e.measured) (Drive.session_log s))
    o.sessions

(* The metrics, plus a note per latency sample giving its p90 and its
   highest percentile with ten samples beyond.  Only the memory and the
   set-up time are gated (README.md, "Which metrics are gated"); the
   latencies and rates are measured, printed, stored and compared, but on
   a shared machine they do not repeat within the 10% a gate needs. *)
let e2e_metrics (o : Drive.outcome) ~setup ~rss =
  let wall = secs (Int64.sub o.end_ns o.start_ns) in
  let measured = measured_entries o in
  (* A failed request or round counts as missing every latency limit. *)
  let req =
    Array.of_list
      (List.map (fun (e : Drive.entry) -> if Drive.ok e then secs (Int64.sub e.recv e.due) else wall)
         measured)
  in
  let rounds = List.concat_map rounds_of o.sessions in
  let rnd = Array.of_list (List.map (fun r -> if r.round_ok then r.lat else wall) rounds) in
  let count p l = List.length (List.filter p l) in
  let q a pm = Bstats.quantile a (float_of_int pm /. 1000.0) in
  let lat name a pm =
    let n = Array.length a in
    { name; value = q a pm; unit_ = "s"; better = Bstats.Lower; gated = false; samples = n;
      stat = Bstats.pm_label pm; thin = pm > 500 && Bstats.beyond n pm < 10 }
  in
  let other ?(gated = false) name value unit_ better samples stat =
    { name; value; unit_; better; gated; samples; stat; thin = false }
  in
  let note what a =
    match Bstats.tail_pm (Array.length a) with
    | Some pm ->
      Printf.sprintf "%s latency: p90 %.6g s, highest supported percentile %s = %.6g s of %d" what
        (q a 900) (Bstats.pm_label pm) (q a pm) (Array.length a)
    | None -> Printf.sprintf "%s latency: %d samples, too few for any percentile" what (Array.length a)
  in
  ( [ lat "round_p50_s" rnd 500;
      lat "round_p90_s" rnd 900;
      lat "request_p50_s" req 500;
      other "rounds_per_s" (float_of_int (count (fun r -> r.round_ok) rounds) /. wall) "1/s"
        Bstats.Higher (List.length rounds) "rate";
      other "requests_per_s" (float_of_int (count Drive.ok measured) /. wall) "1/s"
        Bstats.Higher (List.length measured) "rate";
      other ~gated:true "setup_s" (Bstats.median (Array.of_list setup)) "s" Bstats.Lower
        (List.length setup) "p50";
      other ~gated:true "service_rss_mb" rss "MiB" Bstats.Lower 1 "VmHWM" ],
    [ note "round" rnd; note "request" req ] )

(* --- environment ------------------------------------------------------------------ *)

let git_commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line
    with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Seconds the hypervisor ran other guests while this machine's CPUs
   wanted to run (the "steal" column of /proc/stat), summed over CPUs:
   recorded per run because it slows every latency at once. *)
let steal_s () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (Proc.read_file "/proc/stat"))) with
  | "cpu" :: rest ->
    (match List.filter (( <> ) "") rest with
     | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.0
     | _ -> 0.0)
  | _ -> 0.0
  | exception _ -> 0.0

(* Filesystem type of the mount holding [dir] (fsync cost depends on it). *)
let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let under mp = mp = "/" || path = mp || String.starts_with ~prefix:(mp ^ "/") path in
  List.fold_left
    (fun (best, fs) line ->
      match String.split_on_char ' ' line with
      | _ :: mp :: t :: _ when under mp && String.length mp > String.length best -> (mp, t)
      | _ -> (best, fs))
    ("", "unknown")
    (String.split_on_char '\n' (Proc.read_file "/proc/self/mounts"))
  |> snd

let environment (w : Plan.t) ~dir ~seed ~seconds =
  Json.Obj
    [ ("git_commit", Json.String (git_commit ()));
      ("nproc", Json.Number (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.String Sys.ocaml_version);
      ("sider_domains_caller",
       match Sys.getenv_opt "SIDER_DOMAINS" with Some v -> Json.String v | None -> Json.Null);
      ("sider_domains_service", Json.String "unset");
      ("data_dir_fs", Json.String (fs_type dir));
      ("seed", Json.Number (float_of_int seed));
      ("seconds", Json.Number seconds);
      ("connections", Json.Number (float_of_int w.connections)) ]

(* --- phases of one workload ---------------------------------------------------------- *)

(* One set-up, the [r]th of the run: spawn, healthy, preload, warm-up.
   The warm-up takes its datasets from the [population] in its fixed
   order, so its cost does not depend on the seed.  Returns the set-up's
   time, the service and the preloaded sessions. *)
let set_up (w : Plan.t) ~dir ~seed ~population pool r =
  let t0 = Obs.now_ns () in
  let s = Proc.spawn ~exe:!sider_exe ~dir:(Filename.concat dir (Printf.sprintf "setup-%d" r)) w.service_args in
  let preloaded =
    try
      let p = match w.kind with Plan.Reads -> Drive.preload w ~port:s.port ~seed pool | _ -> [] in
      Drive.warm_up w ~port:s.port population;
      p
    with e -> Proc.stop s; raise e
  in
  (since t0, s, preloaded)

let discard (s : Proc.t) =
  Proc.stop s;
  Proc.rm_rf (Filename.concat s.dir "data")

(* Set-ups [first] .. [first + n - 1], each service stopped again: their
   times. *)
let extra_set_ups w ~dir ~seed ~population pool ~first n =
  List.init n (fun i ->
      let t, s, _ = set_up w ~dir ~seed ~population pool (first + i) in
      discard s;
      t)

(* How many set-ups a run times: [pre] ahead of the measured window, the
   last of them the measured service, and [post] once that service has
   stopped.  The machine's speed changes from second to second; set-ups on
   both sides of the window sample more of it than consecutive ones, and
   setup_s is their median. *)
type set_ups = { pre : int; post : int }

let compact_events (w : Plan.t) =
  let rec find = function
    | "--compact-threshold" :: v :: _ -> int_of_string v
    | _ :: rest -> find rest
    | [] -> 1024
  in
  find w.service_args

(* The service records its metrics and flight recorder on every request
   (`sider api` installs a null sink); a traced run records them too, so
   the replay's times compare with the service's. *)
let with_service_obs f =
  Obs.set_sink (Some Obs.null_sink);
  Obs.set_flight_recorder ~capacity:512 true;
  Fun.protect ~finally:(fun () -> Obs.set_flight_recorder false; Obs.set_sink None) f

(* A traced closed loop replays a seeded share of its sessions in this
   process while its window runs: after each create, round and read of
   such a session, the client applies the same requests to the session's
   in-process twin, so a service round and its replay meet the same
   machine load.  Returns the hook and a function that closes the
   replays and lists their sessions. *)
let mirror_share = 0.5

let mirror (w : Plan.t) ~seed ~tr ~journal_dir =
  let replayers = Hashtbl.create 64 in
  let sampled sidx =
    sidx >= w.checked && Rng.float (Rng.create ((seed * 7919) + sidx)) < mirror_share
  in
  let hook (s : Drive.session) =
    if sampled s.sidx then (
      let r =
        match Hashtbl.find_opt replayers s.sidx with
        | Some (_, r) -> r
        | None ->
          let r = Replay.replayer ~tr ?journal_dir ~compact_events:(compact_events w) s in
          Hashtbl.add replayers s.sidx (s, r);
          r
      in
      Replay.catch_up r s)
  in
  let finish () =
    Hashtbl.fold (fun _ (s, r) acc -> ignore (Replay.finish r); s :: acc) replayers []
    |> List.sort (fun (a : Drive.session) b -> compare a.sidx b.sidx)
  in
  (hook, finish)

(* The open loop cannot pause for a replay: service_churn replays, after
   its window, a seeded sample of sessions whose service time fits the
   trace budget. *)
let trace_budget_s = 12.0

let trace_sample ~seed ~checked (sessions : Drive.session list) =
  let rng = Rng.create ((seed * 7) + 3) in
  let others = Array.of_list (List.filter (fun s -> not (List.memq s checked)) sessions) in
  Plan.shuffle rng others;
  let cost (s : Drive.session) =
    List.fold_left (fun a (e : Drive.entry) -> a +. secs (Int64.sub e.recv e.sent)) 0.0 s.log
  in
  let spent = ref 0.0 in
  Array.to_list others
  |> List.filter (fun s ->
      if !spent +. cost s <= trace_budget_s then (spent := !spent +. cost s; true) else false)

(* Fetch each checked session's final projection from the service and
   compare it with an in-process replay of the session's log. *)
let check_final (w : Plan.t) ~port checked =
  List.map
    (fun (s : Drive.session) ->
      match Http.request ~timeout_s:60.0 ~meth:"GET" ~port ("/sessions/" ^ s.id ^ "/projection") with
      | Ok { Http.status = 200; r_body; _ } -> (
        match Replay.session ~compact_events:(compact_events w) s with
        | Some sess -> Replay.check_projection sess r_body
        | None -> Error "replay produced no session"
        | exception e -> Error ("replay: " ^ Printexc.to_string e))
      | Ok r -> Error (Printf.sprintf "final projection: status %d" r.Http.status)
      | Error e -> Error ("final projection: " ^ e))
    checked

let checks (w : Plan.t) (o : Drive.outcome) ~failed ~error_ratio ~checked identical =
  let all = List.concat_map (fun (s : Drive.session) -> s.log) o.sessions in
  let bad = List.filter (fun e -> not (Drive.ok e)) all in
  let reports = List.filter_map (fun (e : Drive.entry) -> e.report) all in
  let unconverged = List.filter (fun (r : Drive.report) -> not r.converged || r.degradations > 0) reports in
  let rounds = List.concat_map rounds_of o.sessions in
  let compute = w.kind <> Plan.Churn in
  let errors = List.filter_map (function Error e -> Some e | Ok () -> None) identical in
  [ ("statuses", bad = [] && o.dropped = 0,
     Printf.sprintf "%d of %d requests had an unexpected status, %d arrivals dropped"
       (List.length bad) (List.length all) o.dropped);
    ("converged", (not compute) || unconverged = [],
     if compute then
       Printf.sprintf "%d of %d updates not converged or degraded" (List.length unconverged)
         (List.length reports)
     else "not required on this workload");
    ("error_ratio", (not compute) || failed = 0, Printf.sprintf "%g" error_ratio);
    ("rounds", rounds <> [], Printf.sprintf "%d rounds" (List.length rounds));
    ("bit_identical", checked <> [] && errors = [],
     Printf.sprintf "%d sessions: %s" (List.length checked)
       (if errors = [] then "all identical" else String.concat "; " errors)) ]

(* Per-layer metrics of a traced run: the /metrics diff, the client's
   own counts, and the replay's spans, with the service's rounds and
   requests set against their in-process replays. *)
let traced_layers (w : Plan.t) (o : Drive.outcome) ~before ~after ~tr ~replayed =
  let measured = measured_entries o in
  let dur = Hashtbl.create 1024 in
  List.iter
    (fun (sp : Replay.span) ->
      if sp.name = "replay.request" then Hashtbl.replace dur sp.trace (Replay.dur_s sp))
    tr.Replay.spans;
  let in_proc traces =
    List.fold_left (fun acc t -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt dur t)) 0.0 traces
  in
  let rounds =
    List.concat_map rounds_of replayed
    |> List.filter_map (fun r -> if r.round_ok then Some (r.lat, in_proc r.traces) else None)
  in
  (* Open loop: how late each session's first request, and each revisit,
     left the generator. *)
  let send_lags =
    if w.kind <> Plan.Churn then []
    else
      List.filter_map
        (fun (s : Drive.session) ->
          match Drive.session_log s with e :: _ -> Some (secs (Int64.sub e.sent e.due)) | [] -> None)
        o.sessions
      @ List.filter_map
          (fun (e : Drive.entry) -> if e.revisit then Some (secs (Int64.sub e.sent e.due)) else None)
          measured
  in
  (* What tracing cost: the wall time of every replayed request and split. *)
  let replay_wall =
    List.fold_left
      (fun acc (sp : Replay.span) -> if sp.parent = 0 then acc +. Replay.dur_s sp else acc)
      0.0 tr.Replay.spans
  in
  Layers.compute ~before ~after ~measured ~send_lags ~tr ~rounds ~replay_wall

(* --- one workload --------------------------------------------------------------------- *)

type result = {
  workload : Plan.t;
  correct : bool;
  attempted : int;
  failed : int;
  e2e : e2e list;
  layers : Layers.metric list;
}

let run_workload ~out_dir ~seed ~seconds ~trace ~set_ups (w : Plan.t) =
  let run_id =
    Printf.sprintf "%s-seed%d-trace%d-%Ld" w.name seed (if trace then 1 else 0)
      (Int64.of_float (Unix.gettimeofday () *. 1e6))
  in
  let dir = Filename.concat out_dir run_id in
  Bench_common.ensure_dir dir;
  Printf.printf "== %s: seed %d, %s, %d connection(s) ==\n%!" w.name seed
    (match w.kind with
     | Plan.Churn -> Printf.sprintf "open loop, %g s of arrivals at %g sessions/s" seconds w.sessions_per_s
     | Plan.Compute -> Printf.sprintf "closed loop, %d sessions" (Plan.work w ~seconds)
     | Plan.Reads -> Printf.sprintf "closed loop, %d operations" (Plan.work w ~seconds))
    w.connections;
  (* Inputs first: generating them is the benchmark's work, not set-up. *)
  let arrivals = match w.kind with Plan.Churn -> Drive.schedule w ~seed ~seconds | _ -> [||] in
  let sessions =
    match w.kind with
    | Plan.Compute -> Plan.work w ~seconds
    | Plan.Reads -> w.preload
    | Plan.Churn -> Array.length arrivals
  in
  let population = Plan.population w in
  let pool = Plan.datasets w ~seed ~sessions population in
  let setup_pre = extra_set_ups w ~dir ~seed ~population pool ~first:1 (set_ups.pre - 1) in
  let setup_last, svc, preloaded = set_up w ~dir ~seed ~population pool set_ups.pre in
  Fun.protect
    ~finally:(fun () ->
      discard svc;
      Proc.rm_rf (Filename.concat dir "replay"))
  @@ fun () ->
  let port = svc.port in
  let tr = if trace then Some (Replay.tracer ()) else None in
  let journal_dir =
    Option.map (fun _ -> let d = Filename.concat dir "replay" in Bench_common.ensure_dir d; d) tr
  in
  let hook, mirrored =
    match tr with
    | Some tr when w.kind <> Plan.Churn -> mirror w ~seed ~tr ~journal_dir
    | _ -> (ignore, fun () -> [])
  in
  let traced f = if trace then with_service_obs f else f () in
  (* Rendering /metrics sorts a copy of every histogram, megabytes on
     the compute workloads: an untimed run never asks, so the service's
     peak memory is its own work's. *)
  let scrape () = if trace then Layers.scrape ~port else Hashtbl.create 1 in
  let before = scrape () in
  Atomic.set Drive.measuring true;
  let t_measure = Obs.now_ns () and steal0 = steal_s () in
  let o =
    traced @@ fun () ->
    match w.kind with
    | Plan.Compute -> Drive.closed_compute w ~port ~seed ~seconds ~mirror:hook pool
    | Plan.Reads -> Drive.closed_reads w ~port ~seed ~seconds ~mirror:hook pool preloaded
    | Plan.Churn -> Drive.open_churn w ~port ~seed pool arrivals
  in
  Atomic.set Drive.measuring false;
  let measure_wall = since t_measure and steal = steal_s () -. steal0 in
  let rss = Proc.peak_rss_mb svc in
  let after = scrape () in
  let t_check = Obs.now_ns () in
  let created = List.filter (fun (s : Drive.session) -> s.id <> "") o.sessions in
  let checked = List.filteri (fun i _ -> i < w.checked) created in
  let identical = check_final w ~port checked in
  let replayed =
    match (tr, w.kind) with
    | Some tr, Plan.Churn ->
      let sample = trace_sample ~seed ~checked created in
      traced (fun () ->
          List.iter
            (fun s -> ignore (Replay.session ~tr ?journal_dir ~compact_events:(compact_events w) s))
            sample);
      sample
    | _ -> mirrored ()
  in
  let check_wall = since t_check in
  discard svc;
  let setup =
    setup_pre @ [ setup_last ]
    @ extra_set_ups w ~dir ~seed ~population pool ~first:(set_ups.pre + 1) set_ups.post
  in
  let measured = measured_entries o in
  let failed = List.length (List.filter (fun e -> not (Drive.ok e)) measured) + o.dropped in
  let attempted = List.length measured + o.dropped in
  let error_ratio = if attempted > 0 then float_of_int failed /. float_of_int attempted else 1.0 in
  let checks = checks w o ~failed ~error_ratio ~checked identical in
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  let e2e, notes = e2e_metrics o ~setup ~rss in
  let layers =
    match tr with
    | None -> []
    | Some t ->
      Replay.write_spans t (Filename.concat out_dir ("trace-" ^ w.name ^ ".jsonl"));
      traced_layers w o ~before ~after ~tr:t ~replayed
  in
  List.iter
    (fun m ->
      Printf.printf "  %-22s %14.6g %-5s %s of %d%s%s\n" m.name m.value m.unit_ m.stat m.samples
        (if m.gated then "  (gated)" else "")
        (if m.thin then "  (fewer than 10 samples beyond)" else ""))
    e2e;
  Printf.printf "  %-22s %14.6g       %d of %d requests failed\n" "error_ratio" error_ratio failed
    attempted;
  List.iter (Printf.printf "  %s\n") notes;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  check %-16s %s  %s\n" name (if ok then "ok  " else "FAIL") detail;
      if not ok then Printf.eprintf "sider_bench: %s: check %s failed: %s\n%!" w.name name detail)
    checks;
  List.iter (fun (m : Layers.metric) -> Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit_) layers;
  Printf.printf "  phases: setup %s s, measure %.3f s (cpu steal %.2f s), checks %.3f s\n%!"
    (String.concat "/" (List.map (Printf.sprintf "%.3f") setup)) measure_wall steal check_wall;
  let num x = Json.Number x in
  let obj l = Json.Obj l in
  let result_json =
    obj
      [ ("schema", Json.String "sider-e2e/1");
        ("run_id", Json.String run_id);
        ("workload", Json.String w.name);
        ("seed", num (float_of_int seed));
        ("trace", Json.Bool trace);
        ("env", environment w ~dir ~seed ~seconds);
        ("phases",
         obj [ ("setup_s", Json.List (List.map num setup)); ("measure_s", num measure_wall);
               ("cpu_steal_s", num steal); ("check_s", num check_wall) ]);
        ("correct", Json.Bool correct);
        ("attempted", num (float_of_int attempted));
        ("failed", num (float_of_int failed));
        ("error_ratio", num error_ratio);
        ("metrics",
         obj (List.map (fun m ->
             (m.name, obj [ ("value", num m.value); ("unit", Json.String m.unit_);
                            ("better", Json.String (Bstats.direction_name m.better));
                            ("gated", Json.Bool m.gated);
                            ("samples", num (float_of_int m.samples)); ("stat", Json.String m.stat) ]))
             e2e));
        ("per_layer",
         obj (List.map (fun (m : Layers.metric) ->
             (m.name, obj [ ("value", num m.value); ("unit", Json.String m.unit_) ])) layers));
        ("checks",
         Json.List (List.map (fun (n, ok, d) ->
             obj [ ("name", Json.String n); ("ok", Json.Bool ok); ("detail", Json.String d) ]) checks)) ]
  in
  Out_channel.with_open_bin (Filename.concat out_dir (run_id ^ ".json")) (fun oc ->
      output_string oc (Json.to_string result_json);
      output_char oc '\n');
  (* The service's logs stay behind only when something went wrong. *)
  if correct then Proc.rm_rf dir;
  { workload = w; correct; attempted; failed; e2e; layers }

(* --- command line ------------------------------------------------------------------- *)

let usage =
  "sider_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
  \            [--out-dir DIR] [--service PATH]\n\
   sider_bench --compare PARENT_DIR CHANGE_DIR\n\
   Workloads: " ^ String.concat ", " (List.map (fun (w : Plan.t) -> w.name) Plan.all)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke = ref false and out_dir = ref "_artifacts/bench/e2e" in
  let compare = ref [] in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1 adds the traced replay and per-layer metrics");
      ("--smoke", Arg.Set smoke, " every workload at about a twentieth of the size, checks included");
      ("--out-dir", Arg.Set_string out_dir, "DIR  result files (default _artifacts/bench/e2e)");
      ("--service", Arg.Set_string sider_exe, "PATH  the sider executable (default " ^ !sider_exe ^ ")");
      ("--compare", Arg.Tuple [ Arg.String (fun a -> compare := [ a ]);
                                Arg.String (fun b -> compare := !compare @ [ b ]) ],
       "PARENT_DIR CHANGE_DIR  compare two sets of result files") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !compare with
  | [ p; c ] -> exit (Compare.run p c)
  | _ ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    at_exit Proc.kill_all;
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
    if not (Sys.file_exists !sider_exe) then (
      Printf.eprintf "sider_bench: %s not found (build it first, see README.md)\n" !sider_exe;
      exit 2);
    let workloads =
      if !workload = "all" then Plan.all
      else
        match Plan.find !workload with
        | Some w -> [ w ]
        | None -> Printf.eprintf "sider_bench: unknown workload %s\n%s\n" !workload usage; exit 2
    in
    let workloads, seconds, set_ups =
      if !smoke then (List.map Plan.smoke workloads, 1.0, { pre = 1; post = 0 })
      else (workloads, !seconds, { pre = 3; post = 4 })
    in
    Bench_common.ensure_dir !out_dir;
    let results =
      List.map
        (run_workload ~out_dir:!out_dir ~seed:!seed ~seconds ~trace:(!trace = 1) ~set_ups)
        workloads
    in
    let correct = List.for_all (fun r -> r.correct) results in
    let key (r : result) name =
      match results with [ _ ] -> name | _ -> r.workload.name ^ "." ^ name
    in
    let metrics =
      List.concat_map
        (fun r ->
          if !trace = 1 then
            List.filter_map
              (fun (m : Layers.metric) -> if m.listed then Some (key r m.name, m.value, m.unit_) else None)
              r.layers
          else List.filter_map (fun m -> if m.gated then Some (key r m.name, m.value, m.unit_) else None) r.e2e)
        results
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 results in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool correct);
              ("attempted", Json.Number (float_of_int (sum (fun r -> r.attempted))));
              ("failed", Json.Number (float_of_int (sum (fun r -> r.failed))));
              ("metrics",
               Json.Obj (List.map (fun (n, v, u) ->
                   (n, Json.Obj [ ("value", Json.Number v); ("unit", Json.String u) ])) metrics)) ]));
    exit (if correct then 0 else 1)
