(* The multi-tenant session service: a bounded-queue worker-pool HTTP
   server exposing the full SIDER interaction loop (create session, add
   constraint, update background, fetch projection) over JSON, with
   write-ahead journaling, journal compaction, keep-alive connections,
   TTL session eviction, overload shedding and fault-injection hooks.

   Request lifecycle:

     poller --[bounded queue or 429]--> worker
       worker: deadline check -> read (408/413/400) -> fault polls
               -> route -> validate -> journal append (fsync)
               -> apply to session -> crash poll -> acknowledge
               -> maybe compact journal
       then: pipelined bytes pending -> serve next request in-worker
             otherwise -> hand the connection back to the poller
     poller: one select over the listening socket, a self-pipe and the
             parked connections, until the nearest idle expiry or TTL
             sweep; a new connection is queued (or shed with 429), a
             readable parked one re-enters the worker queue at once,
             one idle past [idle_timeout_s] is closed, and each sweep
             evicts sessions idle past [session_ttl_s] (journal kept;
             rehydrated on next touch)

   The journal-before-apply order is the crash-recovery invariant: a
   client that received 2xx is guaranteed the event is durable, and a
   crash at any other instant loses at most the unacknowledged
   in-flight request (see Persist).  An update whose solve fails stays
   in both the journal and the session history (Session records the
   attempt either way): journal lines and history events remain 1:1,
   which compaction's skip arithmetic depends on, and a replay of the
   failed event rolls back exactly as the live one did. *)

open Sider_linalg
open Sider_data
open Sider_core
open Sider_robust
open Sider_projection
module Obs = Sider_obs.Obs

type config = {
  addr : string;
  port : int;
  data_dir : string option;
  max_sessions : int;
  queue_capacity : int;
  workers : int;
  read_timeout_s : float;
  deadline_s : float;
  max_body : int;
  keepalive_requests : int;
  idle_timeout_s : float;
  session_ttl_s : float;
  compact_events : int;
  access_log : out_channel option;
}

let default_config =
  { addr = "127.0.0.1";
    port = 0;
    data_dir = None;
    max_sessions = 256;
    queue_capacity = 64;
    workers = 4;
    read_timeout_s = 5.0;
    deadline_s = 30.0;
    max_body = 8 * 1024 * 1024;
    keepalive_requests = 1000;
    idle_timeout_s = 5.0;
    session_ttl_s = 0.0;
    compact_events = 1024;
    access_log = None }

(* Service time base: [Obs.now_ns] (wall-rebased, non-decreasing), so
   durations and deadlines survive wall-clock steps.  One clock for
   queue waits, deadlines, park times and request durations. *)
let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

(* One live connection.  [c_enqueued_at] is reset every time the
   connection (re-)enters the worker queue, so each request's deadline
   covers its own queue wait, not the whole connection lifetime. *)
type conn = {
  c_fd : Unix.file_descr;
  c_reader : Http.reader;
  mutable c_served : int;
  mutable c_enqueued_at : float;
}

type t = {
  config : config;
  registry : Registry.t;
  recovery_failures : (string * Sider_error.t) list;
  slo : Slo.t;
  access_m : Mutex.t;
  sock : Unix.file_descr;
  bound_port : int;
  queue : conn Queue.t;
  q_lock : Mutex.t;
  q_nonempty : Condition.t;
  handed_back : conn list Atomic.t;  (* kept alive, not yet polled *)
  wake_r : Unix.file_descr;  (* the poller's self-pipe *)
  wake_w : Unix.file_descr;
  mutable stopping : bool;
  mutable poller : Thread.t option;
  mutable worker_threads : Thread.t list;
}

let registry t = t.registry

let port t = t.bound_port

let recovery_failures t = t.recovery_failures

(* --- responses ------------------------------------------------------------- *)

exception Reply of int * string
(* Early exit from a route handler with a finished (status, JSON body). *)

(* The content types a route declares for its body. *)
let json = "application/json"

let plain = "text/plain; version=0.0.4"

(* A route prints its body into the worker's buffer, after the framing
   gap, and answers its status and content type: a small tree printed
   as [Json.to_string] prints it, or a short string copied in. *)
let tree w status j =
  Json.write w j;
  (status, json)

let text w status content_type body =
  Json.write_raw w body;
  (status, content_type)

let err_body label detail =
  Json.to_string
    (Json.Obj
       [ ("error", Json.String label); ("detail", Json.String detail) ])

let bad fmt = Printf.ksprintf (fun m -> raise (Reply (400, err_body "bad-request" m))) fmt

let status_of_error e =
  match e with
  | Sider_error.Degenerate_data _ -> 400
  | Sider_error.Io_failure _ -> 503
  | Sider_error.Singular_covariance _ | Sider_error.Solver_divergence _
  | Sider_error.Non_convergence _ | Sider_error.Nan_detected _ -> 422

let body_of_error e =
  err_body (Sider_error.label e) (Sider_error.context_of e).Sider_error.detail

(* --- request-body helpers -------------------------------------------------- *)

(* The body's tree, read from the worker's buffer as it arrives: a
   blank body is an empty object, otherwise the value then only
   whitespace, as [Json.of_string] reads it. *)
let body_json (req : Http.request) =
  let c = Http.body_cursor req in
  if Json.blank c then Json.Obj []
  else begin
    let v = Json.read_value c in
    Json.finish c;
    v
  end

let opt_member j key conv default =
  match Json.member_opt key j with Some v -> conv v | None -> default

let method_of_name = function
  | "pca" -> View.Pca
  | "ica" -> View.Ica
  | other -> bad "unknown projection method %S (expected \"pca\" or \"ica\")" other

let rows_field j session =
  let rows =
    match Json.member_opt "rows" j with
    | Some v -> Json.to_ints v
    | None -> bad "missing required field \"rows\""
  in
  if Array.length rows = 0 then bad "empty row selection";
  let n, _ = Mat.dims (Session.data session) in
  Array.iter
    (fun r -> if r < 0 || r >= n then bad "row %d out of range [0, %d)" r n)
    rows;
  rows

(* --- session views --------------------------------------------------------- *)

let session_summary ?trace (entry : Registry.entry) =
  let s = Registry.session ?trace entry in
  let n, d = Mat.dims (Session.data s) in
  Json.Obj
    [ ("id", Json.String entry.id);
      ("rows", Json.Number (float_of_int n));
      ("columns", Json.Number (float_of_int d));
      ("events", Json.Number (float_of_int (List.length (Session.history s))));
      ("constraints", Json.Number (float_of_int (Session.n_constraints s)));
      ("method", Json.String (View.method_name (Session.method_ s)));
      ("degradations",
       Json.Number (float_of_int (List.length (Session.degradations s)))) ]

(* [warm_sweeps] (0) and [cold_sweeps] (= [sweeps]) stay for clients
   that parse them: every sweep is a full sweep. *)
let report_json (r : Sider_maxent.Solver.report) =
  Json.Obj
    [ ("converged", Json.Bool r.converged);
      ("sweeps", Json.Number (float_of_int r.sweeps));
      ("warm_sweeps", Json.Number 0.0);
      ("cold_sweeps", Json.Number (float_of_int r.sweeps));
      ("updates", Json.Number (float_of_int r.updates));
      ("max_dlambda", Json.Number r.max_dlambda);
      ("max_dparam", Json.Number r.max_dparam);
      ("elapsed_s", Json.Number r.elapsed);
      ("degradations",
       Json.List
         (List.map
            (fun e -> Json.String (Sider_error.to_string e))
            r.degradations)) ]

(* --- projection bodies -------------------------------------------------------- *)

(* The fields [Json.to_string] would print for the tree of the view's
   method, axis labels and scores and of every point, in that order.
   Every number is printed from the session's coordinate arrays, which
   the view computed once, so no float is boxed and no point record,
   tree or string is built. *)
let write_projection w session =
  let c = Session.coordinates session in
  let n = Array.length c.Session.data_x in
  let xl, yl = Session.axis_labels session in
  let sx, sy = Session.view_scores session in
  Json.write_raw w "{\"method\":";
  Json.write_string w (View.method_name (Session.method_ session));
  Json.write_raw w ",\"axis_labels\":[";
  Json.write_string w xl;
  Json.write_char w ',';
  Json.write_string w yl;
  Json.write_raw w "],\"scores\":[";
  Json.write_number w sx;
  Json.write_char w ',';
  Json.write_number w sy;
  Json.write_raw w "],\"points\":[";
  let labels = Session.labels session in
  for i = 0 to n - 1 do
    Json.write_raw w (if i = 0 then "{\"i\":" else ",{\"i\":");
    Json.write_int w i;
    Json.write_raw w ",\"x\":";
    Json.write_number_at w c.Session.data_x i;
    Json.write_raw w ",\"y\":";
    Json.write_number_at w c.Session.data_y i;
    Json.write_raw w ",\"bx\":";
    Json.write_number_at w c.Session.sample_x i;
    Json.write_raw w ",\"by\":";
    Json.write_number_at w c.Session.sample_y i;
    (match labels with
     | Some l ->
       Json.write_raw w ",\"label\":";
       Json.write_string w l.(i)
     | None -> ());
    Json.write_char w '}'
  done;
  Json.write_raw w "]}"

(* A worker's read buffer and response buffer, kept for its whole life,
   so a warm request reads and answers with neither.  The read buffer
   holds a request head, at most 24 KiB (the head limit plus one read);
   a connection keeps only what it pipelined past its last request.
   Between responses the response buffer keeps at most
   [retained_bytes]: a larger response's buffer is dropped right after
   it, and the next one grows a fresh buffer from [initial_bytes].  A
   fixed constant, not an option: it only bounds what an idle worker
   holds (a projection body is about 124 bytes a row, so 1 MiB keeps
   sessions up to about 8,000 rows warm), and no load changes what the
   service sends. *)
type out = { mutable w : Json.writer; rb : Http.read_buffer }

let initial_bytes = 4096

let retained_bytes = 1 lsl 20

let out () = { w = Json.writer initial_bytes; rb = Http.read_buffer () }

let release out =
  if Json.capacity out.w > retained_bytes then
    out.w <- Json.writer initial_bytes

(* --- request context -------------------------------------------------------- *)

(* Per-request observability state, threaded from [serve_one] through
   the route handlers and back into the access-log line. *)
type req_ctx = {
  rc_trace : string;
  mutable rc_tenant : string;  (* session id touched, "-" otherwise *)
  mutable rc_journal_ns : int64;  (* journal append+fsync time *)
  mutable rc_sweeps : int;  (* sweeps of an update's solve *)
}

let make_ctx trace =
  { rc_trace = trace; rc_tenant = "-"; rc_journal_ns = 0L; rc_sweeps = 0 }

let ns_span t0 = Int64.sub (Obs.now_ns ()) t0

(* --- mutations ------------------------------------------------------------- *)

let journal_event ctx (entry : Registry.entry) event =
  match entry.journal with
  | None -> ()
  | Some j ->
    let t0 = Obs.now_ns () in
    Persist.journal_append j event;
    let dt = ns_span t0 in
    ctx.rc_journal_ns <- Int64.add ctx.rc_journal_ns dt;
    Obs.observe ~labels:[ ("stage", "journal") ] "serve.stage_s"
      (Int64.to_float dt /. 1e9)

(* Run [f] with the per-session lock held; 404 if the id is unknown or
   the entry lost a race with DELETE.  Touches the entry (resetting its
   idle clock) — {!Registry.session} inside [f] rehydrates an evicted
   entry under this same lock. *)
let with_entry t id f =
  match Registry.find t.registry id with
  | None -> raise (Reply (404, err_body "not-found" ("no session " ^ id)))
  | Some entry ->
    Mutex.lock entry.Registry.lock [@sider.lock "entry"];
    Fun.protect ~finally:(fun () -> Mutex.unlock entry.Registry.lock)
    @@ fun () ->
    if entry.Registry.closed then
      raise (Reply (404, err_body "not-found" ("no session " ^ id)))
    else (
      Registry.touch entry;
      f entry)

let crash_poll path =
  if Fault.should_crash_after_journal ~path then raise Fault.Crash_injected

type create = {
  dataset : Dataset.t;
  seed : int;
  standardize : bool;
  jitter : float;
  method_ : View.method_;
}

(* The body is read once, with a cursor: the dataset's rows go straight
   into one float array, the other fields, small, as trees (the first
   of a repeated key counts, as [Json.member_opt] finds it).  Nothing is
   checked until the whole body has parsed, so a syntax error anywhere
   is the 400 [malformed-json] a tree parse gives; the checks then run
   in the order they always have: the dataset, its size, then seed,
   standardize, jitter and method. *)
let read_create c =
  if Json.blank c then bad "missing required field \"dataset\"";
  let dataset = ref None in
  let seed = ref None and standardize = ref None in
  let jitter = ref None and method_ = ref None in
  let first slot =
    let v = Json.read_value c in
    if Option.is_none !slot then slot := Some v
  in
  (match Json.peek c with
   | `Obj ->
     Json.read_object c (function
       | "dataset" when Option.is_none !dataset ->
         dataset := Some (Persist.read_dataset c)
       | "seed" -> first seed
       | "standardize" -> first standardize
       | "jitter" -> first jitter
       | "method" -> first method_
       | _ -> ignore (Json.read_value c))
   | _ -> ignore (Json.read_value c));
  Json.finish c;
  let ds =
    match !dataset with
    | Some validate -> validate ()
    | None -> bad "missing required field \"dataset\""
  in
  (* Checked before anything is journaled: smaller data has no 2-D view,
     and a one-row session would be acknowledged and then fail replay. *)
  let n = Dataset.n_rows ds and d = Dataset.n_cols ds in
  if n < 2 || d < 2 then
    bad "dataset must have at least 2 rows and 2 columns, got %d x %d" n d;
  let field slot conv default =
    match !slot with Some v -> conv v | None -> default
  in
  let seed = field seed Json.to_int 42 in
  let standardize = field standardize Json.to_bool true in
  let jitter = field jitter Json.to_float 1e-3 in
  let method_ = method_of_name (field method_ Json.to_str "pca") in
  { dataset = ds; seed; standardize; jitter; method_ }

let decode_create body = read_create (Json.cursor body)

let handle_create t ctx w (req : Http.request) =
  let { dataset; seed; standardize; jitter; method_ } =
    read_create (Http.body_cursor req)
  in
  let session = Session.create ~seed ~standardize ~jitter ~method_ dataset in
  match Registry.add t.registry session with
  | Error `Full ->
    Obs.count "serve.rejected_sessions_full";
    raise (Reply (429, err_body "too-many-sessions" "session capacity reached"))
  | Error (`Io e) -> raise (Reply (status_of_error e, body_of_error e))
  | Ok entry ->
    ctx.rc_tenant <- entry.Registry.id;
    crash_poll req.path;
    tree w 201 (session_summary entry)

let handle_constraint t ctx w (req : Http.request) id =
  let j = body_json req in
  let ctype = opt_member j "type" Json.to_str "cluster" in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  (* The journaled event carries the tag the session will record. *)
  let tag kind = opt_member j "tag" Json.to_str (Session.default_tag s kind) in
  let event =
    match ctype with
    | "cluster" ->
      let rows = rows_field j s in
      Session.Added_cluster { rows; tag = tag `Cluster }
    | "two_d" ->
      let rows = rows_field j s in
      Session.Added_two_d { rows; tag = tag `Two_d }
    | "margin" -> Session.Added_margin
    | "one_cluster" -> Session.Added_one_cluster
    | other -> bad "unknown constraint type %S" other
  in
  journal_event ctx entry event;
  Session.apply s event;
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  tree w 200 (session_summary entry)

let handle_update t ctx w (req : Http.request) id ~deadline_at =
  let j = body_json req in
  let remaining = deadline_at -. now_s () in
  if remaining <= 0.0 then (
    Obs.count "serve.deadline_expired";
    raise
      (Reply (503, err_body "deadline-expired" "request deadline exhausted")));
  let requested = opt_member j "time_cutoff" Json.to_float 10.0 in
  (* The cutoff is journaled, and JSON has no infinity: a non-finite one
     would be acknowledged and then fail recovery. *)
  if not (Float.is_finite requested) then
    bad "time_cutoff must be a finite number, got %g" requested;
  let time_cutoff = Float.min requested remaining in
  let max_sweeps = Option.map Json.to_int (Json.member_opt "max_sweeps" j) in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  journal_event ctx entry (Session.Updated { time_cutoff; max_sweeps });
  let t0 = Obs.now_ns () in
  let result =
    Session.update_background ~trace:ctx.rc_trace ~time_cutoff ?max_sweeps s
  in
  Obs.observe ~labels:[ ("stage", "solve") ] "serve.stage_s"
    (Int64.to_float (ns_span t0) /. 1e9);
  (match result with
   | Ok (r : Sider_maxent.Solver.report) -> ctx.rc_sweeps <- r.sweeps
   | Error _ -> ());
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  match result with
  | Ok report -> tree w 200 (report_json report)
  | Error e -> text w (status_of_error e) json (body_of_error e)

let handle_view t ctx out (req : Http.request) id =
  let j = body_json req in
  let m = method_of_name (opt_member j "method" Json.to_str "pca") in
  with_entry t id @@ fun entry ->
  let s = Registry.session ~trace:ctx.rc_trace entry in
  journal_event ctx entry (Session.Viewed m);
  let t0 = Obs.now_ns () in
  ignore (Session.recompute_view ~method_:m s);
  write_projection out.w s;
  Obs.observe ~labels:[ ("stage", "project") ] "serve.stage_s"
    (Int64.to_float (ns_span t0) /. 1e9);
  crash_poll req.path;
  Registry.maybe_compact t.registry entry;
  (200, json)

(* --- routing --------------------------------------------------------------- *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* Route label for the metrics: a fixed, closed set of values so the
   [serve.request_s{route,status}] family stays within the cardinality
   budget no matter what paths clients probe. *)
let route_label path =
  match segments path with
  | [ "healthz" ] -> "healthz"
  | [ "metrics" ] -> "metrics"
  | [ "slo" ] -> "slo"
  | [ "sessions" ] -> "sessions"
  | [ "sessions"; _ ] -> "session"
  | [ "sessions"; _; "constraints" ] -> "constraints"
  | [ "sessions"; _; "update" ] -> "update"
  | [ "sessions"; _; "view" ] -> "view"
  | [ "sessions"; _; "projection" ] -> "projection"
  | _ -> "other"

let observability_route = function
  | "healthz" | "metrics" | "slo" -> true
  | _ -> false

let tenant_of_path path =
  match segments path with "sessions" :: id :: _ -> id | _ -> "-"

let slo_burn_gauges t =
  let snap = Slo.snapshot t.slo in
  (match snap.Slo.s_windows with
   | [ w5; w1 ] ->
     Obs.gauge "serve.slo_burn_5m" w5.Slo.w_burn;
     Obs.gauge "serve.slo_burn_1h" w1.Slo.w_burn
   | _ -> ());
  snap

(* The body goes into [out.w], whose body [serve_one] has started. *)
let route t ctx out (req : Http.request) ~deadline_at =
  let w = out.w in
  match (req.meth, segments req.path) with
  | "GET", [ "healthz" ] ->
    if Slo.degraded t.slo then
      text w 503 json
        (err_body "slo-degraded"
           "error budget burning above threshold in both windows")
    else text w 200 plain "ok\n"
  | "GET", [ "slo" ] ->
    text w 200 json (Slo.snapshot_to_json (Slo.snapshot t.slo))
  | "GET", [ "metrics" ] ->
    ignore (slo_burn_gauges t);
    text w 200 plain (Serve.exposition (Obs.metrics_snapshot ()))
  | "POST", [ "sessions" ] -> handle_create t ctx w req
  | "GET", [ "sessions" ] ->
    tree w 200
      (Json.Obj
         [ ("count", Json.Number (float_of_int (Registry.count t.registry)));
           ("resident",
            Json.Number (float_of_int (Registry.resident_count t.registry)));
           ("sessions",
            Json.List
              (List.map (fun id -> Json.String id) (Registry.ids t.registry)))
         ])
  | "GET", [ "sessions"; id ] ->
    with_entry t id (fun entry ->
        tree w 200 (session_summary ~trace:ctx.rc_trace entry))
  | "DELETE", [ "sessions"; id ] ->
    (match Registry.remove t.registry id with
     | Some _ -> (204, json)
     | None -> text w 404 json (err_body "not-found" ("no session " ^ id)))
  | "POST", [ "sessions"; id; "constraints" ] ->
    handle_constraint t ctx w req id
  | "POST", [ "sessions"; id; "update" ] ->
    handle_update t ctx w req id ~deadline_at
  | "POST", [ "sessions"; id; "view" ] -> handle_view t ctx out req id
  | "GET", [ "sessions"; id; "projection" ] ->
    with_entry t id (fun entry ->
        let s = Registry.session ~trace:ctx.rc_trace entry in
        let t0 = Obs.now_ns () in
        write_projection w s;
        Obs.observe ~labels:[ ("stage", "project") ] "serve.stage_s"
          (Int64.to_float (ns_span t0) /. 1e9);
        (200, json))
  | _, ("sessions" :: _ | [ "healthz" ] | [ "metrics" ] | [ "slo" ]) ->
    text w 405 json (err_body "method-not-allowed" (req.meth ^ " " ^ req.path))
  | _ -> text w 404 json (err_body "not-found" req.path)

(* A route that raised may have printed part of its body: the error's
   body starts over. *)
let dispatch t ctx out (req : Http.request) ~deadline_at =
  let error status body =
    Http.start_body out.w;
    text out.w status json body
  in
  try route t ctx out req ~deadline_at with
  | Reply (status, body) -> error status body
  | Sider_error.Error e -> error (status_of_error e) (body_of_error e)
  | Json.Parse_error m -> error 400 (err_body "malformed-json" m)
  | Not_found -> error 400 (err_body "bad-request" "missing required field")
  | Invalid_argument m -> error 400 (err_body "bad-request" m)
  | Failure m -> error 400 (err_body "bad-request" m)

(* --- connection handling --------------------------------------------------- *)

(* Frame and send the body in [w]; false when the write failed. *)
let respond_status ?(keep_alive = false) ?trace ?(flight_on_5xx = true) w fd
    (status, content_type) =
  let headers = if status = 429 || status = 503 then [ ("Retry-After", "1") ] else [] in
  let headers =
    match trace with
    | Some id -> (Http.trace_response_header, id) :: headers
    | None -> headers
  in
  if status >= 500 then begin
    let tag = match trace with Some id -> id ^ " " | None -> "" in
    Obs.flight_event ~name:"serve.error"
      ~detail:(Printf.sprintf "%s%d %s" tag status (Http.body_text w));
    if flight_on_5xx then
      Obs.flight_auto_dump ?trace
        ~reason:(Printf.sprintf "serve.5xx %d" status) ()
  end;
  Http.respond ~headers ~status ~content_type ~keep_alive fd w

(* A response whose body is a short JSON string, [err_body]'s. *)
let respond_text ?trace w fd status body =
  Http.start_body w;
  ignore (respond_status ?trace w fd (text w status json body))

(* One structured JSON line per completed response: everything needed
   to correlate a request with its span tree and any flight dump (the
   trace id), plus the latency decomposition the stage histograms only
   hold in aggregate.  Flushed per line so a crash loses nothing. *)
let access_log_line t ctx ~route ~meth ~path ~status ~dur_s ~queue_s =
  match t.config.access_log with
  | None -> ()
  | Some oc ->
    let line =
      Printf.sprintf
        "{\"ts\":%.6f,\"trace\":\"%s\",\"tenant\":\"%s\",\"route\":\"%s\",\
         \"method\":\"%s\",\"path\":\"%s\",\"status\":%d,\"dur_s\":%.6f,\
         \"queue_s\":%.6f,\"journal_fsync_ns\":%Ld,\"sweeps\":%d}\n"
        (now_s ())
        (Obs.json_escape ctx.rc_trace)
        (Obs.json_escape ctx.rc_tenant)
        (Obs.json_escape route) (Obs.json_escape meth) (Obs.json_escape path)
        status dur_s queue_s ctx.rc_journal_ns ctx.rc_sweeps
    in
    (* Fun.protect, not a bare unlock: the Sys_error handler below only
       covers channel faults — anything else (Out_of_memory, a signal
       exception) would strand access_m and wedge every later request
       that tries to log. *)
    Mutex.lock t.access_m [@sider.lock "access_m"];
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.access_m)
      (fun () ->
        try
          output_string oc line;
          flush oc
        with Sys_error _ -> ())

(* Per-response accounting: the labeled request histogram, the
   per-tenant counter, the SLO windows (session-facing routes only —
   observability probes must not burn the budget they report) and the
   access log. *)
let finish t ~t0 ~queue_s ~ctx ~route ~meth ~path ~status ~slo =
  let dur_s = now_s () -. t0 in
  Obs.observe
    ~labels:[ ("route", route); ("status", string_of_int status) ]
    "serve.request_s" dur_s;
  Obs.count ~labels:[ ("tenant", ctx.rc_tenant) ] "serve.tenant_requests";
  if slo then Slo.record t.slo ~status ~dur_s;
  access_log_line t ctx ~route ~meth ~path ~status ~dur_s ~queue_s

(* Serve one request from [conn], its response printed and framed in
   [out]; [`Keep] means the connection stays open for another request
   (the caller decides whether to serve it now — pipelined bytes
   pending — or hand it back to the poller).  A response whose write
   failed closes the connection: the peer is gone, and answering the
   requests it pipelined would only write into a reset socket. *)
let serve_one t out conn =
  Obs.count "serve.requests";
  let t0 = now_s () in
  let queue_s = Float.max 0.0 (t0 -. conn.c_enqueued_at) in
  Obs.observe ~labels:[ ("stage", "queue") ] "serve.stage_s" queue_s;
  let deadline_at = conn.c_enqueued_at +. t.config.deadline_s in
  (* Responses emitted before a request parses still carry a (fresh)
     trace id and still produce an access-log line; the read errors are
     client-side failures and stay out of the SLO windows. *)
  let early ~route ~status body =
    let trace = Http.fresh_trace_id () in
    respond_text ~trace out.w conn.c_fd status body;
    finish t ~t0 ~queue_s ~ctx:(make_ctx trace) ~route ~meth:"-" ~path:"-"
      ~status ~slo:(status >= 500)
  in
  (* A read that failed, of the head or of the body, answers in place of
     whatever the route printed, and the connection closes. *)
  let refuse e =
    (match e with
     | Http.Timeout ->
       Obs.count "serve.read_timeouts";
       early ~route:"read" ~status:408
         (err_body "request-timeout" "client too slow")
     | Http.Closed -> ()
     | Http.Too_large ->
       early ~route:"read" ~status:413
         (err_body "too-large" "request exceeds limits")
     | Http.Length_required ->
       early ~route:"read" ~status:411
         (err_body "length-required"
            "Transfer-Encoding is not supported; send Content-Length")
     | Http.Malformed m ->
       early ~route:"read" ~status:400 (err_body "malformed-request" m));
    `Close
  in
  if t0 > deadline_at then (
    Obs.count "serve.deadline_expired";
    early ~route:"queue" ~status:503
      (err_body "deadline-expired" "queued past deadline");
    `Close)
  else (
    match
      Http.read_request_buffered ~max_body:t.config.max_body out.rb
        conn.c_reader
    with
    | Error e -> refuse e
    | Ok req ->
      let req =
        match Fault.request_fault ~path:req.path with
        | Some `Drop -> None
        | Some (`Delay ms) ->
          Thread.delay (float_of_int ms /. 1000.0);
          Some req
        | Some `Truncate ->
          Http.truncate_body req;
          Some req
        | None -> Some req
      in
      (match req with
       | None -> `Close
       | Some req ->
         let trace =
           match Http.trace_of_request req with
           | Some id -> id
           | None -> Http.fresh_trace_id ()
         in
         let route = route_label req.Http.path in
         let ctx = make_ctx trace in
         ctx.rc_tenant <- tenant_of_path req.Http.path;
         Http.start_body out.w;
         let routed () =
           Obs.with_span "serve.request"
             ~attrs:
               [ ("trace", Obs.Str trace); ("route", Obs.Str route) ]
           @@ fun () ->
           let ((status, _) as r) = dispatch t ctx out req ~deadline_at in
           Obs.span_attr "status" (Obs.Int status);
           r
         in
         (* A POST route reads its body as it decodes it, before it
            changes anything, and what it left is drained before the
            response goes out.  No other route reads one: its body is
            drained first, so one that never comes is a 408 before a
            DELETE runs. *)
         let reply =
           match
             if req.Http.meth = "POST" then Ok () else Http.finish_body req
           with
           | Error e -> Error e
           | Ok () ->
             (match routed () with
              | r -> Result.map (fun () -> r) (Http.finish_body req)
              | exception Http.Read_failed e -> Error e)
         in
         match reply with
         | Error e -> refuse e
         | Ok ((status, _) as reply) ->
           conn.c_served <- conn.c_served + 1;
           let keep =
             (not (Http.wants_close req))
             && conn.c_served < t.config.keepalive_requests
             && not t.stopping
           in
           (* A degraded health check must not itself trigger a flight
              dump — probes poll it every few seconds. *)
           let sent =
             respond_status ~keep_alive:keep ~trace
               ~flight_on_5xx:(route <> "healthz") out.w conn.c_fd reply
           in
           if not sent then Obs.count "serve.write_failures";
           finish t ~t0 ~queue_s ~ctx ~route ~meth:req.Http.meth
             ~path:req.Http.path ~status
             ~slo:(not (observability_route route));
           if keep && sent then `Keep else `Close))

(* --- threads --------------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let wake_poller t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* Queue [conn] for a worker, unless the queue already holds [cap]
   connections. *)
let enqueue ?(cap = max_int) t conn =
  conn.c_enqueued_at <- now_s ();
  Mutex.lock t.q_lock [@sider.lock "q_lock"];
  let ok = Queue.length t.queue < cap in
  if ok then (
    Queue.push conn t.queue;
    Condition.signal t.q_nonempty);
  Mutex.unlock t.q_lock;
  ok

(* A worker hands a quiet keep-alive connection back to the poller
   without a lock: it pushes the connection onto [handed_back], then
   writes the wake byte. *)
let rec hand_back t conn =
  let l = Atomic.get t.handed_back in
  if Atomic.compare_and_set t.handed_back l (conn :: l) then wake_poller t
  else hand_back t conn

let rec worker_loop t out =
  (* Fun.protect: Queue.pop raises Empty if the queue is drained behind
     our back — impossible today (pops happen under q_lock) but a bare
     unlock would turn that logic bug into a stuck service. *)
  Mutex.lock t.q_lock [@sider.lock "q_lock"];
  let item =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.q_lock)
      (fun () ->
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.q_nonempty t.q_lock
        done;
        if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
  in
  match item with
  | None -> () (* stopping and fully drained *)
  | Some conn ->
    (* Keep-alive inner loop: requests already buffered (pipelined) are
       served back-to-back on this worker; once the connection has no
       bytes waiting it goes back to the poller, so the worker frees up
       for other connections instead of blocking in [read]. *)
    let rec serve () =
      let next = serve_one t out conn in
      release out;
      match next with
      | `Close -> close_quietly conn.c_fd
      | `Keep ->
        if Http.reader_has_pending conn.c_reader then (
          conn.c_enqueued_at <- now_s ();
          serve ())
        else hand_back t conn
    in
    (try serve () with
     | Fault.Crash_injected ->
       (* Simulated process death between journal and ack: the client
          gets a closed connection, never a response. *)
       Obs.count "serve.injected_crashes";
       close_quietly conn.c_fd
     | e ->
       (try
          respond_text ~trace:(Http.fresh_trace_id ()) out.w conn.c_fd 500
            (err_body "internal-error" (Printexc.to_string e))
        with _ -> ());
       release out;
       close_quietly conn.c_fd);
    worker_loop t out

(* Accept every connection waiting on the (non-blocking) listening
   socket: queue it, or shed it with a 429 from the poller's own buffer
   [w] when the queue is full. *)
let rec accept_pending t w =
  match Unix.accept t.sock with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    accept_pending t w
  | exception Unix.Unix_error _ -> () (* EAGAIN: none left *)
  | fd, _ ->
    (* Blocking, as accept(2) asks portable code to set explicitly
       (BSD copies the listener's O_NONBLOCK): the 408 is the receive
       timeout firing. *)
    Unix.clear_nonblock fd;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.read_timeout_s;
    let conn =
      { c_fd = fd; c_reader = Http.reader fd; c_served = 0;
        c_enqueued_at = 0.0 }
    in
    if not (enqueue ~cap:t.config.queue_capacity t conn) then (
      Obs.count "serve.rejected_queue_full";
      respond_text ~trace:(Http.fresh_trace_id ()) w fd 429
        (err_body "overloaded" "request queue full");
      close_quietly fd);
    accept_pending t w

(* [select] fails with EINVAL once any fd it watches reaches FD_SETSIZE
   (1024).  Cap the parked population well below that so parking itself
   can never push the poller over the edge; past the cap the oldest
   parked connections are closed (they were idle anyway — the client
   reconnects). *)
let max_parked = 512

let close_parked ?counter parked =
  List.iter (fun (c, _) -> close_quietly c.c_fd) parked;
  match (counter, List.length parked) with
  | Some name, n when n > 0 -> Obs.count ~by:n name
  | _ -> ()

(* After the wake bytes are drained, one exchange takes every connection
   the workers handed back: one pushed after it wrote its byte after the
   drain, so the next [select] wakes for it.  [parked] is newest first,
   with park times. *)
let absorb t buf parked =
  (try ignore (Unix.read t.wake_r buf 0 (Bytes.length buf))
   with Unix.Unix_error _ -> ());
  let now = now_s () in
  let parked =
    List.fold_left
      (fun acc c -> (c, now) :: acc)
      parked (Atomic.exchange t.handed_back [])
  in
  if List.length parked <= max_parked then parked
  else (
    close_parked ~counter:"serve.parked_overflow_closed"
      (List.filteri (fun i _ -> i >= max_parked) parked);
    List.filteri (fun i _ -> i < max_parked) parked)

(* The poller owns every socket no worker is serving: the listening
   socket, the self-pipe and the parked keep-alive connections.  One
   [select] waits on all of them until the nearest idle expiry or TTL
   sweep (every [min(0.5, ttl/4)] seconds).  A readable parked
   connection re-enters the worker queue at once, one silent past
   [idle_timeout_s] is closed, so workers only ever block reading a
   request that has started arriving.  [w] is the buffer of its 429s.
   No lock is held across [select], [accept], a 429 or a close. *)
let poll_loop t w =
  let idle = t.config.idle_timeout_s and ttl = t.config.session_ttl_s in
  let sweep_every = Float.max 0.02 (Float.min 0.5 (ttl /. 4.0)) in
  let buf = Bytes.create 64 in
  let rec loop parked next_sweep =
    let until =
      List.fold_left
        (fun acc (_, since) -> Float.min acc (since +. idle))
        next_sweep parked
    in
    let timeout =
      if Float.is_finite until then Float.max 0.01 (until -. now_s ())
      else -1.0 (* nothing to time out: sleep until woken *)
    in
    let fds = t.sock :: t.wake_r :: List.map (fun (c, _) -> c.c_fd) parked in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop parked next_sweep
    | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
      (* A parked fd's numeric value crossed FD_SETSIZE (possible even
         under [max_parked] when the process holds many other
         descriptors; [start] checked the listening socket and the
         pipe): [select] cannot watch this set at all.  Recycle it —
         close every parked connection rather than strand them. *)
      close_parked ~counter:"serve.parked_overflow_closed" parked;
      loop [] next_sweep
    | readable, _, _ ->
      let parked =
        if List.mem t.wake_r readable then absorb t buf parked else parked
      in
      if t.stopping then close_parked parked
      else (
        if List.mem t.sock readable then accept_pending t w;
        let now = now_s () in
        let ready, parked =
          List.partition (fun (c, _) -> List.mem c.c_fd readable) parked
        in
        let expired, parked =
          List.partition (fun (_, since) -> now -. since >= idle) parked
        in
        List.iter (fun (c, _) -> ignore (enqueue t c)) ready;
        close_parked ~counter:"serve.idle_closed" expired;
        if now < next_sweep then loop parked next_sweep
        else (
          ignore (Registry.evict_idle t.registry ~ttl_s:ttl);
          loop parked (now_s () +. sweep_every)))
  in
  loop [] (if ttl > 0.0 then now_s () +. sweep_every else Float.infinity)

let start ?(config = default_config) () =
  (* A peer that resets its connection makes the next write to it raise
     SIGPIPE, whose default action ends the process and every session
     in it; ignored, the write fails with EPIPE instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let registry =
    Registry.create ?data_dir:config.data_dir
      ~max_sessions:config.max_sessions
      ~compact_events:config.compact_events ()
  in
  let recovery_failures = Registry.recover registry in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let wake_r, wake_w = Unix.pipe () in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.addr, config.port));
     Unix.listen sock 128;
     Unix.set_nonblock sock;
     (* EINVAL when a descriptor is past FD_SETSIZE: the poller could
        never watch its own socket. *)
     ignore (Unix.select [ sock; wake_r ] [] [] 0.0)
   with e ->
     List.iter close_quietly [ sock; wake_r; wake_w ];
     Registry.close registry;
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let t =
    { config;
      registry;
      recovery_failures;
      slo = Slo.create ();
      access_m = Mutex.create ();
      sock;
      bound_port;
      queue = Queue.create ();
      q_lock = Mutex.create ();
      q_nonempty = Condition.create ();
      handed_back = Atomic.make [];
      wake_r;
      wake_w;
      stopping = false;
      poller = None;
      worker_threads = [] }
  in
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create (worker_loop t) (out ()));
  t.poller <- Some (Thread.create (poll_loop t) (Json.writer initial_bytes));
  t

let stop t =
  if not t.stopping then (
    Mutex.lock t.q_lock [@sider.lock "q_lock"];
    t.stopping <- true;
    Condition.broadcast t.q_nonempty;
    Mutex.unlock t.q_lock;
    (* The poller wakes, closes every parked connection and exits; after
       it nothing accepts or re-queues a connection. *)
    wake_poller t;
    Option.iter Thread.join t.poller;
    t.poller <- None;
    close_quietly t.sock;
    (* Workers drain whatever was already queued, then exit: accepted
       requests are finished, new connections are refused and every
       response carries [Connection: close]. *)
    List.iter Thread.join t.worker_threads;
    t.worker_threads <- [];
    (* A worker may have handed a connection back after the poller's
       last look. *)
    List.iter
      (fun c -> close_quietly c.c_fd)
      (Atomic.exchange t.handed_back []);
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    (match t.config.access_log with
     | Some oc -> (try flush oc with Sys_error _ -> ())
     | None -> ());
    Registry.close t.registry)
