(* Observability layer: span-stack well-formedness, histogram quantile
   properties, JSON-lines round-tripping, and the determinism guarantee —
   instrumented hot paths with sinks disabled (or enabled) produce
   bit-identical numerics. *)

open Test_helpers
open Sider_obs
open Sider_data
open Sider_maxent

(* Every test leaves the global layer empty, with the sink [SIDER_TRACE]
   names. *)
let with_recording f =
  let r = Obs.recording_sink () in
  Obs.reset ();
  Fun.protect ~finally:Obs.reset (fun () ->
      with_sink (Some r.Obs.rec_sink) (fun () -> f r))

(* --- span stack ----------------------------------------------------------- *)

(* Deterministic random span tree: returns the number of [with_span]
   calls made. *)
let rec random_tree rng depth =
  let children = if depth >= 4 then 0 else Sider_rand.Rng.int rng 4 in
  let count = ref 1 in
  Obs.with_span
    (Printf.sprintf "node-d%d" depth)
    (fun () ->
      Alcotest.(check int) "stack depth" (depth + 1) (Obs.current_depth ());
      for _ = 1 to children do
        count := !count + random_tree rng (depth + 1)
      done);
  !count

let test_span_nesting () =
  for seed = 0 to 19 do
    with_recording (fun r ->
        let rng = Sider_rand.Rng.create seed in
        let expected = random_tree rng 0 in
        let spans = r.Obs.spans () in
        (* Every start has exactly one end. *)
        Alcotest.(check int)
          "one completed span per with_span" expected (List.length spans);
        Alcotest.(check int) "stack empty at the end" 0 (Obs.current_depth ());
        List.iter
          (fun (s : Obs.span) ->
            check_true "duration non-negative" (Int64.compare s.Obs.dur_ns 0L >= 0);
            check_true "start non-negative"
              (Int64.compare s.Obs.start_ns 0L >= 0);
            (* The name records the depth it was opened at; the emitted
               depth must agree. *)
            Alcotest.(check string)
              "depth matches name" (Printf.sprintf "node-d%d" s.Obs.depth)
              s.Obs.name)
          spans)
  done

let test_span_on_exception () =
  with_recording (fun r ->
      (try
         Obs.with_span "outer" (fun () ->
             Obs.with_span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      let names = List.map (fun s -> s.Obs.name) (r.Obs.spans ()) in
      Alcotest.(check (list string))
        "both spans emitted despite the raise" [ "inner"; "outer" ] names;
      Alcotest.(check int) "stack unwound" 0 (Obs.current_depth ()))

let test_span_attrs () =
  with_recording (fun r ->
      Obs.with_span "s" ~attrs:[ ("a", Obs.Int 1) ] (fun () ->
          Obs.span_attr "b" (Obs.Str "x"));
      match r.Obs.spans () with
      | [ s ] ->
        Alcotest.(check int) "attr count" 2 (List.length s.Obs.attrs);
        check_true "insertion order"
          (List.map fst s.Obs.attrs = [ "a"; "b" ])
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

(* Two systhreads on one domain, as the service's request workers run:
   A opens a span and waits, B opens one, A opens and closes a child
   and then its own span, B closes last.  Each thread's spans nest
   under its own open spans only, and closing A's spans leaves B's
   frame open. *)
let test_thread_span_stacks () =
  with_recording (fun r ->
      let b_opened = Semaphore.Binary.make false in
      let a_closed = Semaphore.Binary.make false in
      let b_depth_after_a = ref (-1) in
      let b = ref None in
      Obs.with_span "a.outer" (fun () ->
          b :=
            Some
              (Thread.create
                 (fun () ->
                   Obs.with_span "b.req" (fun () ->
                       Semaphore.Binary.release b_opened;
                       Semaphore.Binary.acquire a_closed;
                       b_depth_after_a := Obs.current_depth ()))
                 ());
          Semaphore.Binary.acquire b_opened;
          Obs.with_span "a.inner" (fun () -> ()));
      let a_depth = Obs.current_depth () in
      Semaphore.Binary.release a_closed;
      Option.iter Thread.join !b;
      let depth name =
        match List.find_opt (fun s -> s.Obs.name = name) (r.Obs.spans ()) with
        | Some s -> s.Obs.depth
        | None -> Alcotest.failf "span %s not emitted" name
      in
      Alcotest.(check int) "a.outer is a root" 0 (depth "a.outer");
      Alcotest.(check int) "a.inner nests under a.outer only" 1
        (depth "a.inner");
      Alcotest.(check int) "b.req is a root on its own thread" 0
        (depth "b.req");
      Alcotest.(check int) "A's stack is empty after its spans close" 0
        a_depth;
      Alcotest.(check int) "closing A's spans keeps B's frame open" 1
        !b_depth_after_a;
      Alcotest.(check int) "no span left open" 0 (Obs.current_depth ()))

(* --- metrics -------------------------------------------------------------- *)

let find_hist name metrics =
  List.find_map
    (function
      | Obs.Histogram { name = n; count; sum; p50; p95; max }
        when n = name ->
        Some (count, sum, p50, p95, max)
      | _ -> None)
    metrics

let test_histogram_quantiles =
  qcheck ~count:100 "histogram p50 <= p95 <= max"
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun values ->
      with_recording (fun _ ->
          (* The by-name path is the code under test here. *)
          List.iter
            (fun v -> Obs.observe "h" v [@sider.allow "obs-hygiene"])
            values;
          match find_hist "h" (Obs.metrics_snapshot ()) with
          | None -> false
          | Some (count, _sum, p50, p95, max) ->
            let ground_max = List.fold_left Float.max neg_infinity values in
            count = List.length values
            && p50 <= p95 +. 1e-12
            && p95 <= max +. 1e-12
            && Float.abs (max -. ground_max) < 1e-12))

let test_counters_gauges () =
  with_recording (fun _ ->
      Obs.count "c";
      Obs.count ~by:4 "c";
      Obs.gauge "g" 1.5;
      Obs.gauge "g" 2.5;
      let metrics = Obs.metrics_snapshot () in
      List.iter
        (function
          | Obs.Counter { name = "c"; total } ->
            Alcotest.(check int) "counter total" 5 total
          | Obs.Gauge { name = "g"; value } ->
            approx "gauge keeps last value" 2.5 value
          | _ -> ())
        metrics;
      Alcotest.(check int) "two instruments" 2 (List.length metrics))

let test_disabled_is_inert () =
  with_sink None @@ fun () ->
  Obs.reset ();
  let ran = ref false in
  let out = Obs.with_span "ignored" (fun () -> ran := true; 42) in
  Alcotest.(check int) "body result passes through" 42 out;
  check_true "body ran" !ran;
  Obs.count "c";
  Obs.observe "h" 1.0;
  Obs.gauge "g" 1.0;
  Alcotest.(check int)
    "nothing recorded while disabled" 0
    (List.length (Obs.metrics_snapshot ()));
  Alcotest.(check int) "no open spans" 0 (Obs.current_depth ())

(* --- JSON-lines sink ------------------------------------------------------ *)

let test_json_roundtrip () =
  let lines = ref [] in
  let sink = Obs.json_sink (fun l -> lines := l :: !lines) in
  Obs.reset ();
  Fun.protect ~finally:Obs.reset @@ fun () ->
  with_sink (Some sink) (fun () ->
      Obs.with_span "outer \"quoted\"\n"
        ~attrs:[ ("k", Obs.Str "v\twith\\escapes"); ("n", Obs.Int (-3));
                 ("f", Obs.Float 1.5e-7); ("b", Obs.Bool true) ]
        (fun () -> Obs.with_span "inner" (fun () -> ()));
      Obs.count ~by:7 "updates";
      Obs.gauge "ratio" 0.25;
      Obs.observe "lat" 0.5;
      Obs.observe "lat" 1.5;
      Obs.flush ());
  let parsed = List.rev_map Json.of_string !lines in
  (* Root-span closes sample the GC into gc.* gauges; they are exercised
     elsewhere — drop them so the counts below stay exact. *)
  let parsed =
    List.filter
      (fun j ->
        match Json.member_opt "name" j with
        | Some (Json.String n) ->
          not (String.length n >= 3 && String.sub n 0 3 = "gc.")
        | _ -> true)
      parsed
  in
  Alcotest.(check int) "2 spans + 3 metrics" 5 (List.length parsed);
  let typ j = Json.to_str (Json.member "type" j) in
  let spans = List.filter (fun j -> typ j = "span") parsed in
  Alcotest.(check int) "span lines" 2 (List.length spans);
  List.iter
    (fun j ->
      check_true "span has non-negative duration"
        (Json.to_float (Json.member "dur_ns" j) >= 0.0))
    spans;
  let outer =
    List.find
      (fun j -> Json.to_str (Json.member "name" j) = "outer \"quoted\"\n")
      spans
  in
  let attrs = Json.member "attrs" outer in
  Alcotest.(check string) "string attr round-trips" "v\twith\\escapes"
    (Json.to_str (Json.member "k" attrs));
  Alcotest.(check int) "int attr round-trips" (-3)
    (Json.to_int (Json.member "n" attrs));
  approx "float attr round-trips" 1.5e-7
    (Json.to_float (Json.member "f" attrs));
  check_true "bool attr round-trips" (Json.to_bool (Json.member "b" attrs));
  let counter =
    List.find (fun j -> typ j = "counter") parsed
  in
  Alcotest.(check int) "counter total" 7
    (Json.to_int (Json.member "total" counter));
  let hist = List.find (fun j -> typ j = "histogram") parsed in
  Alcotest.(check int) "histogram count" 2
    (Json.to_int (Json.member "count" hist));
  approx "histogram max" 1.5 (Json.to_float (Json.member "max" hist))

(* --- labeled metrics ------------------------------------------------------ *)

(* Values range over raw bytes — quotes, backslashes, newlines, the
   full unprintable range — because tenant ids come off the wire.  Keys
   are generated pre-sorted so the round-trip is exact equality
   ([labeled_name] canonicalises by sorting keys). *)
let test_labeled_roundtrip =
  qcheck ~count:300 "split_labeled inverts labeled_name over raw bytes"
    QCheck.(list_of_size Gen.(0 -- 4) string)
    (fun values ->
      let labels = List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) values in
      let base = "serve.request_s" in
      let composed = Obs.labeled_name base labels in
      let base', labels' = Obs.split_labeled composed in
      base' = base && labels' = labels
      && Obs.labeled_name base [] = base
      && Obs.split_labeled base = (base, []))

let test_label_escape () =
  Alcotest.(check string) "backslash" "a\\\\b" (Obs.label_escape "a\\b");
  Alcotest.(check string) "quote" "a\\\"b" (Obs.label_escape "a\"b");
  Alcotest.(check string) "newline" "a\\nb" (Obs.label_escape "a\nb");
  Alcotest.(check string) "plain bytes pass through" "p\x01\xffq"
    (Obs.label_escape "p\x01\xffq")

(* An unbounded tenant population must land in first-K own series plus
   one all-[other] overflow bucket — never a series per tenant. *)
let test_labeled_cardinality () =
  with_recording (fun _ ->
      Obs.set_max_label_sets 4;
      Fun.protect ~finally:(fun () -> Obs.set_max_label_sets 32) @@ fun () ->
      for i = 1 to 100 do
        (Obs.count
           ~labels:[ ("tenant", Printf.sprintf "t%02d" i) ]
           "fam.requests"
         [@sider.allow "obs-hygiene"])
      done;
      let series =
        List.filter_map
          (function
            | Obs.Counter { name; total }
              when fst (Obs.split_labeled name) = "fam.requests" ->
              Some (snd (Obs.split_labeled name), total)
            | _ -> None)
          (Obs.metrics_snapshot ())
      in
      Alcotest.(check int) "first-K plus one overflow bucket" 5
        (List.length series);
      (match List.assoc_opt [ ("tenant", "other") ] series with
       | Some total ->
         Alcotest.(check int) "overflow absorbs the tail" 96 total
       | None -> Alcotest.fail "overflow bucket missing");
      (* First-seen tenants keep their own series and keep counting. *)
      Obs.count ~labels:[ ("tenant", "t01") ] "fam.requests";
      Alcotest.(check int) "established series still addressable" 2
        (Obs.counter_value
           (Obs.labeled_name "fam.requests" [ ("tenant", "t01") ])))

(* --- one series key --------------------------------------------------------- *)

(* A labeled write lands on the series its composed name names, the
   same one a by-name write of that name reaches; a reset forgets the
   series and the family's budget with it. *)
let test_labeled_series_key () =
  let labels = [ ("stage", "solve") ] in
  let key = Obs.labeled_name "hh.latency_s" labels in
  (* Disabled layer: nothing is recorded and nothing registered. *)
  Obs.observe ~labels "hh.latency_s" 9.0;
  with_recording (fun _ ->
      Alcotest.(check bool) "no registration while disabled" true
        (find_hist key (Obs.metrics_snapshot ()) = None);
      Obs.observe ~labels "hh.latency_s" 0.25;
      Obs.observe key 0.75;
      (match find_hist key (Obs.metrics_snapshot ()) with
       | Some (count, sum, _, _, _) ->
         Alcotest.(check int) "merged count" 2 count;
         approx "merged sum" 1.0 sum
       | None -> Alcotest.fail "labeled histogram missing");
      Obs.observe ~labels:[] "hh.plain_s" 1.0;
      check_true "empty labels write the base name"
        (find_hist "hh.plain_s" (Obs.metrics_snapshot ()) <> None);
      Obs.set_max_label_sets 1;
      Fun.protect ~finally:(fun () -> Obs.set_max_label_sets 32) @@ fun () ->
      Obs.reset ();
      Obs.observe ~labels:[ ("stage", "queue") ] "hh.latency_s" 0.5;
      Obs.observe ~labels "hh.latency_s" 0.5;
      let other = Obs.labeled_name "hh.latency_s" [ ("stage", "other") ] in
      let snapshot = Obs.metrics_snapshot () in
      Alcotest.(check bool) "the old series is gone" true
        (find_hist key snapshot = None);
      match
        ( find_hist
            (Obs.labeled_name "hh.latency_s" [ ("stage", "queue") ])
            snapshot,
          find_hist other snapshot )
      with
      | Some (1, _, _, _, _), Some (1, _, _, _, _) -> ()
      | _ ->
        Alcotest.fail
          "after a reset the first label set is the family's own series")

(* Every write takes the registry mutex, from any thread on any domain:
   two domains and two systhreads writing one labeled series lose
   nothing.  The values are integers, so the sum is exact in any
   order. *)
let test_concurrent_labeled_writes () =
  with_recording (fun _ ->
      let labels = [ ("stage", "solve") ] in
      let per_writer = 10_000 in
      let writer base () =
        for i = 1 to per_writer do
          (Obs.observe ~labels "cw.latency_s" (float_of_int (base + i))
           [@sider.allow "obs-hygiene"]);
          (Obs.count ~labels "cw.writes" [@sider.allow "obs-hygiene"])
        done
      in
      let d1 = Domain.spawn (writer 0) in
      let d2 = Domain.spawn (writer per_writer) in
      let t1 = Thread.create (writer (2 * per_writer)) () in
      let t2 = Thread.create (writer (3 * per_writer)) () in
      Domain.join d1;
      Domain.join d2;
      Thread.join t1;
      Thread.join t2;
      let n = 4 * per_writer in
      let snapshot = Obs.metrics_snapshot () in
      (match find_hist (Obs.labeled_name "cw.latency_s" labels) snapshot with
       | Some (count, sum, _, _, max) ->
         Alcotest.(check int) "every observation counted" n count;
         approx ~eps:0.0 "exact sum" (float_of_int (n * (n + 1) / 2)) sum;
         approx ~eps:0.0 "max" (float_of_int n) max
       | None -> Alcotest.fail "concurrent histogram missing");
      Alcotest.(check int) "every count counted" n
        (Obs.counter_value (Obs.labeled_name "cw.writes" labels)))

(* --- bounded telemetry memory --------------------------------------------- *)

let hist_fields name metrics =
  List.find_map
    (function
      | Obs.Histogram { name = n; count; sum; p50; p95; p99; max }
        when n = name ->
        Some (count, sum, p50, p95, p99, max)
      | _ -> None)
    metrics

(* A histogram's quantiles cover its newest 1024 samples; count, sum and
   max cover every observation. *)
let test_hist_window () =
  let window = 1024 in
  let n = (10 * window) + 7 in
  let rng = Sider_rand.Rng.create 12 in
  (* The largest value comes first, so it has left the window long
     before the snapshot and only the running max still holds it. *)
  let values =
    Array.init n (fun i -> if i = 0 then 1e3 else Sider_rand.Rng.float rng)
  in
  with_recording (fun _ ->
      Array.iter
        (fun v -> (Obs.observe "win.latency_s" v [@sider.allow "obs-hygiene"]))
        values;
      match hist_fields "win.latency_s" (Obs.metrics_snapshot ()) with
      | None -> Alcotest.fail "windowed histogram missing"
      | Some (count, sum, p50, p95, p99, max) ->
        Alcotest.(check int) "count covers every observation" n count;
        let total = Array.fold_left ( +. ) 0.0 values in
        approx ~eps:(1e-9 *. total) "sum covers every observation" total sum;
        approx ~eps:0.0 "max covers every observation" 1e3 max;
        let newest = Array.sub values (n - window) window in
        List.iter
          (fun (label, p, got) ->
            approx ~eps:0.0 label (Obs.quantile_type7 newest p) got)
          [ ("p50 of the newest 1024", 0.5, p50);
            ("p95 of the newest 1024", 0.95, p95);
            ("p99 of the newest 1024", 0.99, p99) ])

(* A long-lived histogram must not grow the heap with its observation
   count. *)
let test_hist_memory_bounded () =
  with_recording (fun _ ->
      Obs.observe "win.heap_s" 0.0;
      let before = (Gc.quick_stat ()).Gc.heap_words in
      for i = 1 to 2_000_000 do
        (Obs.observe "win.heap_s" (float_of_int i)
         [@sider.allow "obs-hygiene"])
      done;
      let grown = (Gc.quick_stat ()).Gc.heap_words - before in
      if grown >= 256 * 1024 then
        Alcotest.failf "2M observations grew the heap by %d words" grown)

(* --- quantile edge cases -------------------------------------------------- *)

let test_quantile_edges () =
  approx "empty sample is 0, not NaN" 0.0 (Obs.quantile_type7 [||] 0.95);
  approx "p95 of a single observation is that observation" 3.25
    (Obs.quantile_type7 [| 3.25 |] 0.95);
  approx "p50 of a single observation is that observation" 3.25
    (Obs.quantile_type7 [| 3.25 |] 0.5);
  (* Through the histogram path too: one observation must report finite
     quantiles equal to itself. *)
  with_recording (fun _ ->
      Obs.observe "one" 2.5;
      match find_hist "one" (Obs.metrics_snapshot ()) with
      | Some (1, _, p50, p95, max) ->
        approx "histogram p50 of 1 sample" 2.5 p50;
        approx "histogram p95 of 1 sample" 2.5 p95;
        approx "histogram max of 1 sample" 2.5 max
      | _ -> Alcotest.fail "single-observation histogram missing")

let test_quantile_props =
  qcheck ~count:200 "type-7 quantiles are finite, bounded and exact at ends"
    QCheck.(pair
              (list_of_size Gen.(0 -- 30) (float_bound_exclusive 100.0))
              (float_bound_inclusive 1.0))
    (fun (values, p) ->
      let arr = Array.of_list values in
      let q = Obs.quantile_type7 arr p in
      if arr = [||] then q = 0.0
      else begin
        let lo = Array.fold_left Float.min infinity arr in
        let hi = Array.fold_left Float.max neg_infinity arr in
        Float.is_finite q
        && q >= lo -. 1e-12
        && q <= hi +. 1e-12
        && Obs.quantile_type7 arr 0.0 = lo
        && Obs.quantile_type7 arr 1.0 = hi
        && (Array.length arr <> 1 || q = arr.(0))
      end)

(* --- flight recorder ------------------------------------------------------ *)

let with_flight ?(capacity = 64) f =
  with_sink None @@ fun () ->
  Obs.reset ();
  Obs.set_flight_recorder ~capacity true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_flight_auto_dump None;
      Obs.set_flight_recorder false;
      Obs.flight_reset ();
      Obs.reset ())
    f

let entry_field key line =
  let j = Json.of_string line in
  match Json.member_opt key j with
  | Some (Json.String s) -> Some s
  | _ -> None

let test_flight_wraparound () =
  with_flight ~capacity:8 (fun () ->
      check_true "recorder reports enabled" (Obs.flight_recorder_enabled ());
      for i = 1 to 20 do
        Obs.flight_event ~name:"tick" ~detail:(string_of_int i)
      done;
      let st = Obs.flight_stats () in
      Alcotest.(check int) "capacity" 8 st.Obs.fr_capacity;
      Alcotest.(check int) "written counts every record" 20 st.Obs.fr_written;
      Alcotest.(check int) "dropped = written - capacity" 12 st.Obs.fr_dropped;
      let entries = Obs.flight_entries () in
      Alcotest.(check int) "ring holds the last 8" 8 (List.length entries);
      List.iteri
        (fun idx line ->
          Alcotest.(check (option string))
            "entries are the newest, oldest first"
            (Some (string_of_int (13 + idx)))
            (entry_field "detail" line))
        entries)

let test_flight_concurrent_writers () =
  with_flight ~capacity:128 (fun () ->
      let writer tag () =
        for i = 1 to 100 do
          Obs.flight_event ~name:tag ~detail:(string_of_int i)
        done
      in
      let d1 = Domain.spawn (writer "a") and d2 = Domain.spawn (writer "b") in
      Domain.join d1;
      Domain.join d2;
      let st = Obs.flight_stats () in
      Alcotest.(check int) "no write lost to the race" 200 st.Obs.fr_written;
      Alcotest.(check int) "dropped accounts for the rest" 72
        st.Obs.fr_dropped;
      Alcotest.(check int) "ring full" 128
        (List.length (Obs.flight_entries ())))

let test_flight_dump_on_degradation () =
  let path = Filename.temp_file "sider_flight" ".jsonl" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      (try Sys.remove path with Sys_error _ -> ());
      Sider_robust.Fault.reset ())
  @@ fun () ->
  with_flight (fun () ->
      Obs.set_flight_auto_dump (Some oc);
      let ds = Sider_data.Synth.clustered ~seed:5 ~n:100 ~d:4 ~k:2 () in
      let session = Sider_core.Session.create ~seed:5 ds in
      Sider_core.Session.add_margin_constraint session;
      Sider_robust.Fault.reset ();
      Sider_robust.Fault.arm (Sider_robust.Fault.Fail_sweep { sweep = 1 });
      (match Sider_core.Session.update_background session with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "expected the injected failure to roll back");
      let entries = Obs.flight_entries () in
      check_true "ring captured the failing sweep's span"
        (List.exists
           (fun l -> entry_field "name" l = Some "solver.sweep")
           entries);
      check_true "ring captured the degradation event"
        (List.exists
           (fun l -> entry_field "name" l = Some "session.degradation")
           entries);
      (* The session's Error path auto-dumped the ring to our channel. *)
      let content =
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        really_input_string ic (in_channel_length ic)
      in
      check_true "auto-dump wrote a header"
        (let lines = String.split_on_char '\n' content in
         match lines with
         | first :: _ ->
           (match Json.member_opt "type" (Json.of_string first) with
            | Some (Json.String "flight_recorder") -> true
            | _ -> false)
         | [] -> false);
      check_true "auto-dump includes the degradation event"
        (List.exists
           (fun l -> l <> "" && entry_field "name" l = Some "session.degradation")
           (String.split_on_char '\n' content)))

(* --- spans off the controller domain -------------------------------------- *)

(* Sink callbacks run on the controller domain only: a span completed on
   another domain lands in the flight recorder and never reaches the
   sink. *)
let test_off_controller_spans () =
  let r = Obs.recording_sink () in
  with_flight (fun () ->
      Obs.set_sink (Some r.Obs.rec_sink);
      let worker_depth =
        Obs.with_span "controller.root" (fun () ->
            Domain.join
              (Domain.spawn (fun () ->
                   Obs.with_span "worker.body" Obs.current_depth)))
      in
      Obs.set_sink None;
      Alcotest.(check (list string)) "the sink sees controller spans only"
        [ "controller.root" ]
        (List.map (fun s -> s.Obs.name) (r.Obs.spans ()));
      Alcotest.(check int) "the worker's span opens on its own thread's stack"
        1 worker_depth;
      let recorded =
        List.filter_map (entry_field "name") (Obs.flight_entries ())
      in
      Alcotest.(check (list string)) "the recorder holds both"
        [ "worker.body"; "controller.root" ] recorded;
      Alcotest.(check int) "no span left open" 0 (Obs.current_depth ()))

(* --- determinism ---------------------------------------------------------- *)

let build_solver () =
  let ds = Sider_data.Synth.clustered ~seed:23 ~n:160 ~d:6 ~k:3 () in
  let data = Sider_data.Dataset.matrix ds in
  let constraints =
    Constr.margin data
    @ List.concat_map
        (fun cls ->
          Constr.cluster ~data
            ~rows:(Sider_data.Dataset.class_indices ds cls) ())
        (Sider_data.Dataset.classes ds)
  in
  Solver.create data constraints

let solve_once () =
  let solver = build_solver () in
  let report = Solver.solve ~max_sweeps:40 solver in
  (solver, report)

let check_identical_params msg a b =
  for c = 0 to Solver.n_classes a - 1 do
    let pa = Solver.class_params a c and pb = Solver.class_params b c in
    let open Sider_maxent.Gauss_params in
    approx_mat ~eps:0.0
      (Printf.sprintf "%s: sigma class %d" msg c)
      pa.sigma pb.sigma;
    approx_vec ~eps:0.0
      (Printf.sprintf "%s: mean class %d" msg c)
      pa.mean pb.mean;
    approx_vec ~eps:0.0
      (Printf.sprintf "%s: theta1 class %d" msg c)
      pa.theta1 pb.theta1
  done

let check_identical_reports msg (a : Solver.report) (b : Solver.report) =
  (* [elapsed] is wall time; everything else must be bit-identical. *)
  Alcotest.(check int) (msg ^ ": sweeps") a.Solver.sweeps b.Solver.sweeps;
  Alcotest.(check int) (msg ^ ": updates") a.Solver.updates b.Solver.updates;
  Alcotest.(check bool) (msg ^ ": converged") a.Solver.converged
    b.Solver.converged;
  approx ~eps:0.0 (msg ^ ": max_dlambda") a.Solver.max_dlambda
    b.Solver.max_dlambda;
  approx ~eps:0.0 (msg ^ ": max_dparam") a.Solver.max_dparam
    b.Solver.max_dparam

let test_solver_determinism () =
  with_sink None @@ fun () ->
  let s1, r1 = solve_once () in
  let s2, r2 = solve_once () in
  check_identical_reports "disabled twice" r1 r2;
  check_identical_params "disabled twice" s1 s2;
  (* Instrumentation on: spans and counters flow, numerics do not move. *)
  let s3, r3 =
    with_recording (fun rec_ ->
        let out = solve_once () in
        check_true "instrumented run emitted spans"
          (r1.Solver.sweeps = 0 || rec_.Obs.spans () <> []);
        out)
  in
  check_identical_reports "instrumented vs disabled" r1 r3;
  check_identical_params "instrumented vs disabled" s1 s3

let suite =
  [
    case "span nesting is well-formed" test_span_nesting;
    case "spans survive exceptions" test_span_on_exception;
    case "span attrs keep insertion order" test_span_attrs;
    test_histogram_quantiles;
    case "quantiles of 0- and 1-sample histograms" test_quantile_edges;
    test_quantile_props;
    case "counters accumulate, gauges keep last" test_counters_gauges;
    test_labeled_roundtrip;
    case "label-value escaping covers quote/backslash/newline"
      test_label_escape;
    case "labeled families keep first-K series plus an overflow bucket"
      test_labeled_cardinality;
    case "labeled writes share the composed key and start over on reset"
      test_labeled_series_key;
    case "histogram quantiles cover the newest 1024, totals every sample"
      test_hist_window;
    case "2M histogram observations leave the heap size flat"
      test_hist_memory_bounded;
    case "disabled layer is inert" test_disabled_is_inert;
    case "json-lines round-trip through Sider_data.Json" test_json_roundtrip;
    case "flight recorder wraps around keeping the newest entries"
      test_flight_wraparound;
    case "flight recorder survives concurrent domain writers"
      test_flight_concurrent_writers;
    case "flight recorder auto-dumps on a session error"
      test_flight_dump_on_degradation;
    case "each thread nests spans on its own stack" test_thread_span_stacks;
    case "off-controller spans reach the flight recorder only"
      test_off_controller_spans;
    case "solver is bit-deterministic with and without sinks"
      test_solver_determinism;
    case "two domains and two threads write one labeled series exactly"
      test_concurrent_labeled_writes;
  ]
