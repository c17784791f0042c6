(* Metrics exposition: the Prometheus text rendering grammar, and a live
   scrape of an ephemeral-port session service fed by a real solver
   session (counters must move between scrapes). *)

open Test_helpers
open Sider_obs
module Serve = Sider_serve.Serve
module Service = Sider_serve.Service

(* --- exposition grammar --------------------------------------------------- *)

let test_exposition_grammar () =
  let metrics =
    [ Obs.Counter { name = "solver.updates"; total = 12 };
      Obs.Gauge { name = "serve.resident_sessions"; value = 2.0 };
      Obs.Histogram
        { name = "session.update_s"; count = 3; sum = 0.6; p50 = 0.1;
          p95 = 0.3; p99 = 0.305; max = 0.31 } ]
  in
  let lines =
    String.split_on_char '\n' (Serve.exposition metrics)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string))
    "counter, gauge and summary render exactly"
    [ "# TYPE sider_solver_updates_total counter";
      "sider_solver_updates_total 12";
      "# TYPE sider_serve_resident_sessions gauge";
      "sider_serve_resident_sessions 2";
      "# TYPE sider_session_update_s summary";
      "sider_session_update_s{quantile=\"0.5\"} 0.1";
      "sider_session_update_s{quantile=\"0.95\"} 0.3";
      "sider_session_update_s{quantile=\"0.99\"} 0.305";
      "sider_session_update_s_sum 0.6";
      "sider_session_update_s_count 3";
      "# TYPE sider_session_update_s_max gauge";
      "sider_session_update_s_max 0.31" ]
    lines;
  Alcotest.(check string) "empty snapshot renders empty" ""
    (Serve.exposition [])

(* Labeled instruments render as one family with per-series label
   suffixes, and [parse_sample] recovers exactly what went in. *)
let test_labeled_exposition () =
  let metrics =
    [ Obs.Counter
        { name = Obs.labeled_name "serve.tenant_requests"
              [ ("tenant", "alice") ];
          total = 3 };
      Obs.Counter
        { name = Obs.labeled_name "serve.tenant_requests"
              [ ("tenant", "b\"ob\n") ];
          total = 1 };
      Obs.Histogram
        { name = Obs.labeled_name "serve.request_s"
              [ ("route", "update"); ("status", "200") ];
          count = 2; sum = 0.4; p50 = 0.2; p95 = 0.3; p99 = 0.3;
          max = 0.3 } ]
  in
  let lines =
    String.split_on_char '\n' (Serve.exposition metrics)
    |> List.filter (fun l -> l <> "")
  in
  let type_lines = List.filter (fun l -> l.[0] = '#') lines in
  (* counter family, summary family, companion max-gauge family *)
  Alcotest.(check int) "one TYPE line per family" 3 (List.length type_lines);
  let parsed =
    List.filter_map Serve.parse_sample lines
  in
  Alcotest.(check int) "every sample line parses"
    (List.length lines - List.length type_lines)
    (List.length parsed);
  check_true "escaped tenant label value round-trips"
    (List.exists
       (fun (n, ls, v) ->
         n = "sider_serve_tenant_requests_total"
         && List.assoc_opt "tenant" ls = Some "b\"ob\n"
         && v = 1.0)
       parsed);
  check_true "summary quantile lines keep the series labels"
    (List.exists
       (fun (n, ls, _) ->
         n = "sider_serve_request_s"
         && List.assoc_opt "route" ls = Some "update"
         && List.assoc_opt "status" ls = Some "200"
         && List.assoc_opt "quantile" ls = Some "0.5")
       parsed)

(* The family name [exposition] gives a gauge named [s]. *)
let mangle s =
  let text = Serve.exposition [ Obs.Gauge { name = s; value = 1.0 } ] in
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' text)) with
  | [ "#"; "TYPE"; m; "gauge" ] -> m
  | _ -> Alcotest.failf "no TYPE line in %S" text

let test_mangle_sanitizes =
  qcheck ~count:300 "mangle lands in the Prometheus charset for any bytes"
    QCheck.string
    (fun s ->
      let m = mangle s in
      String.length m >= 6
      && String.sub m 0 6 = "sider_"
      && String.for_all
           (function
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
             | _ -> false)
           m
      && mangle s = m)

(* Tenant ids come off the wire, so the render/parse pair must survive
   the full byte range in a label value. *)
let test_labeled_sample_roundtrip =
  qcheck ~count:200 "exposition / parse_sample round-trip raw label values"
    QCheck.string
    (fun tenant ->
      let metrics =
        [ Obs.Counter
            { name = Obs.labeled_name "serve.tenant_requests"
                  [ ("tenant", tenant) ];
              total = 7 } ]
      in
      let lines =
        String.split_on_char '\n' (Serve.exposition metrics)
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      match List.filter_map Serve.parse_sample lines with
      | [ (n, [ ("tenant", t) ], v) ] ->
        n = "sider_serve_tenant_requests_total" && t = tenant && v = 7.0
      | _ -> false)

(* Every sample line must be [name{labels} value] with names restricted
   to the Prometheus charset and values parseable as floats. *)
let sample_line_ok line =
  let name_end =
    match (String.index_opt line '{', String.index_opt line ' ') with
    | Some b, Some sp when b < sp -> b
    | _, Some sp -> sp
    | _ -> String.length line
  in
  let name = String.sub line 0 name_end in
  let value =
    match String.rindex_opt line ' ' with
    | Some sp -> String.sub line (sp + 1) (String.length line - sp - 1)
    | None -> ""
  in
  String.length name > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name
  && (float_of_string_opt value <> None
      || value = "+Inf" || value = "-Inf" || value = "NaN")

let check_exposition_grammar body =
  String.split_on_char '\n' body
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
      if String.length line >= 1 && line.[0] = '#' then
        check_true "comment is a TYPE declaration"
          (String.length line > 7 && String.sub line 0 7 = "# TYPE ")
      else check_true ("sample line well-formed: " ^ line)
          (sample_line_ok line))

(* --- live server ---------------------------------------------------------- *)

let http_request ?(meth = "GET") port path =
  match Sider_serve.Http.request ~meth ~port path with
  | Ok r -> (r.Sider_serve.Http.status, r.Sider_serve.Http.r_body)
  | Error e -> Alcotest.failf "%s %s: %s" meth path e

let counter_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
      let prefix = name ^ " " in
      let pl = String.length prefix in
      if String.length line > pl && String.sub line 0 pl = prefix then
        int_of_string_opt (String.sub line pl (String.length line - pl))
      else None)

let run_update session =
  match Sider_core.Session.update_background session with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "update failed: %s"
      (Sider_robust.Sider_error.to_string e)

let test_live_scrape () =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset @@ fun () ->
  with_sink (Some Obs.null_sink) @@ fun () ->
  (* Real telemetry: a margin feedback round on synthetic data. *)
  let ds = Sider_data.Synth.clustered ~seed:11 ~n:120 ~d:5 ~k:2 () in
  let session = Sider_core.Session.create ~seed:11 ds in
  Sider_core.Session.add_margin_constraint session;
  run_update session;
  (* Labeled families alongside the solver's plain instruments: the
     scrape below must render and re-parse them. *)
  Obs.count ~labels:[ ("tenant", "scrape-test") ] "serve.tenant_requests";
  Obs.observe
    ~labels:[ ("route", "update"); ("status", "200") ]
    "serve.request_s" 0.05;
  let server = Service.start () in
  Fun.protect ~finally:(fun () -> Service.stop server) @@ fun () ->
  let port = Service.port server in
  check_true "ephemeral port assigned" (port > 0);
  let status, body = http_request port "/metrics" in
  Alcotest.(check int) "/metrics answers 200" 200 status;
  check_exposition_grammar body;
  let updates =
    match counter_value body "sider_solver_updates_total" with
    | Some v -> v
    | None -> Alcotest.fail "sider_solver_updates_total missing"
  in
  check_true "solver updates counted" (updates > 0);
  check_true "session latency summary exposed"
    (counter_value body "sider_session_update_s_count" <> None);
  (* GC gauges are sampled when the update's root span closes, so a
     real run must expose at least this gauge with a positive value. *)
  check_true "gc heap gauge exposed"
    (counter_value body "sider_gc_heap_words"
     |> Option.fold ~none:false ~some:(fun v -> v > 0));
  (* Labeled families come back out of a live scrape and parse with the
     same helper `sider top` uses. *)
  let labeled =
    String.split_on_char '\n' body
    |> List.filter_map Serve.parse_sample
    |> List.filter (fun (_, ls, _) -> ls <> [])
  in
  check_true "labeled tenant counter scrapes and parses"
    (List.exists
       (fun (n, ls, v) ->
         n = "sider_serve_tenant_requests_total"
         && ls = [ ("tenant", "scrape-test") ]
         && v = 1.0)
       labeled);
  check_true "labeled route/status summary scrapes and parses"
    (List.exists
       (fun (n, ls, _) ->
         n = "sider_serve_request_s"
         && List.assoc_opt "route" ls = Some "update"
         && List.assoc_opt "status" ls = Some "200")
       labeled);
  (* More work between scrapes: the counter must strictly increase. *)
  Sider_core.Session.add_one_cluster_constraint session;
  run_update session;
  let status2, body2 = http_request port "/metrics" in
  Alcotest.(check int) "second scrape answers 200" 200 status2;
  (match counter_value body2 "sider_solver_updates_total" with
   | Some v2 -> check_true "counter increased between scrapes" (v2 > updates)
   | None -> Alcotest.fail "counter disappeared between scrapes");
  let status, body = http_request port "/healthz" in
  Alcotest.(check int) "/healthz answers 200" 200 status;
  Alcotest.(check string) "/healthz body" "ok\n" body;
  let status, _ = http_request port "/nope" in
  Alcotest.(check int) "unknown path answers 404" 404 status;
  let status, _ = http_request ~meth:"POST" port "/metrics" in
  Alcotest.(check int) "non-GET answers 405" 405 status

let test_stop_idempotent () =
  let server = Service.start () in
  Service.stop server;
  Service.stop server;
  (* The port is released: a fresh server can start immediately. *)
  let server2 = Service.start () in
  Service.stop server2

let suite =
  [
    case "exposition grammar: counter, gauge, summary" test_exposition_grammar;
    case "labeled families render grouped and re-parse exactly"
      test_labeled_exposition;
    test_mangle_sanitizes;
    test_labeled_sample_roundtrip;
    case "live scrape: /metrics, /healthz, 404, 405, counter movement"
      test_live_scrape;
    case "stop is idempotent and releases the port" test_stop_idempotent;
  ]
