type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  name : string;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * value) list;
}

type metric =
  | Counter of { name : string; total : int }
  | Gauge of { name : string; value : float }
  | Histogram of {
      name : string;
      count : int;
      sum : float;
      p50 : float;
      p95 : float;
      p99 : float;
      max : float;
    }

type sink = {
  on_span : span -> unit;
  on_metrics : metric list -> unit;
}

(* --- clock ---------------------------------------------------------------- *)

(* Wall time rebased to module load, clamped non-decreasing across all
   domains: gettimeofday can step backwards (NTP), and negative durations
   would violate the invariants downstream consumers (and the property
   tests) rely on.  The clamp is a CAS max so the clock can be read from
   worker domains without a lock. *)
let epoch = Unix.gettimeofday ()

let last_ns : int64 Atomic.t = Atomic.make 0L

let now_ns () =
  let raw = Int64.of_float ((Unix.gettimeofday () -. epoch) *. 1e9) in
  let rec clamp () =
    let last = Atomic.get last_ns in
    if Int64.compare raw last <= 0 then last
    else if Atomic.compare_and_set last_ns last raw then raw
    else clamp ()
  in
  clamp ()

(* --- global state --------------------------------------------------------- *)

type frame = {
  f_name : string;
  f_depth : int;
  f_start : int64;
  mutable f_attrs : (string * value) list;  (* reverse insertion order *)
}

let current_sink : sink option ref = ref None

(* The single fast-path switch: true iff a sink is installed or the
   flight recorder is on.  Every entry point reads this one ref and
   returns immediately when false. *)
let active = ref false

(* The domain that owns the sink (installs it and is the only one that
   ever calls its callbacks).  Defaults to whichever domain loaded this
   module — in practice the main one. *)
let controller : int ref = ref (Domain.self () :> int)

let is_controller () = (Domain.self () :> int) = !controller

(* Per-thread span stacks, keyed by [Thread.id] (unique across domains).
   The service's request workers are systhreads sharing one domain, so a
   per-domain stack would nest one request's spans under another's.  A
   thread's entry is dropped once its stack empties, so the table only
   holds threads with a span open.  [stacks_m] is a leaf lock. *)
let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 16

let stacks_m = Mutex.create ()

let self_id () = Thread.id (Thread.self ())

let find_stack id =
  Mutex.lock stacks_m [@sider.lock "obs_stacks_m"];
  let s = Hashtbl.find_opt stacks id in
  Mutex.unlock stacks_m;
  s

let open_stack id =
  Mutex.lock stacks_m [@sider.lock "obs_stacks_m"];
  let s =
    match Hashtbl.find_opt stacks id with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks id s;
      s
  in
  Mutex.unlock stacks_m;
  s

(* Forget [id]'s emptied stack, unless [clear_stacks] already has. *)
let drop_stack id s =
  Mutex.lock stacks_m [@sider.lock "obs_stacks_m"];
  (match Hashtbl.find_opt stacks id with
   | Some s' when s' == s -> Hashtbl.remove stacks id
   | _ -> ());
  Mutex.unlock stacks_m

let clear_stacks () =
  Mutex.lock stacks_m [@sider.lock "obs_stacks_m"];
  Hashtbl.reset stacks;
  Mutex.unlock stacks_m

(* A histogram keeps the newest [hist_window] samples for its quantiles
   and running totals over every observation, so a long-lived service's
   telemetry stays bounded however many solves it runs.  1024 is the
   smallest power of two at which p99 has ten samples beyond it. *)
let hist_window = 1024

(* All floats, so OCaml stores the record flat and updating it allocates
   nothing. *)
type hist_totals = { mutable sum : float; mutable peak : float }

type hist_acc = {
  mutable values : float array;
      (* grows by doubling from 16 slots up to [hist_window], then
         observation [i] lives in slot [i mod hist_window] *)
  mutable count : int;  (* observations ever recorded *)
  totals : hist_totals;
}

let new_hist_acc slots =
  { values = Array.make slots 0.0; count = 0;
    totals = { sum = 0.0; peak = neg_infinity } }

(* One observation: a slot store plus the running totals.  The only
   allocation (growing the window) happens before anything changes. *)
let hist_push h v =
  let slots = Array.length h.values in
  if h.count = slots && slots < hist_window then begin
    let bigger = Array.make (2 * slots) 0.0 in
    Array.blit h.values 0 bigger 0 slots;
    h.values <- bigger
  end;
  h.values.(h.count mod hist_window) <- v;
  h.count <- h.count + 1;
  h.totals.sum <- h.totals.sum +. v;
  if v > h.totals.peak then h.totals.peak <- v

type instrument = I_counter of int ref | I_gauge of float ref | I_hist of hist_acc

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

(* Distinct label sets materialized per labeled-metric base name (the
   per-family cardinality budget); guarded by [registry_m] like the
   registry itself. *)
let family_sets : (string, int) Hashtbl.t = Hashtbl.create 16

(* The metrics registry is shared across threads and domains: the
   service's request threads record concurrently, and a program may
   record from domains of its own.  Every registry access is taken under
   this mutex once the [active] fast path has passed; with the layer off
   nothing locks. *)
let registry_m = Mutex.create ()

let locked f =
  Mutex.lock registry_m [@sider.lock "obs_registry_m"];
  match f () with
  | v ->
    Mutex.unlock registry_m;
    v
  | exception e ->
    Mutex.unlock registry_m;
    raise e

(* --- flight recorder ------------------------------------------------------ *)

(* Always-on-capable ring buffer of the last [capacity] completed spans
   and discrete events.  Writes are lock-free — one fetch-and-add on the
   cursor plus one slot store — so worker domains record without
   contending.  Reads (dumps) are best-effort snapshots: a slot being
   overwritten mid-dump yields a stale entry, never a crash. *)

type flight_entry =
  | F_span of span
  | F_event of { at_ns : int64; ev_name : string; detail : string }

type flight_stats = {
  fr_enabled : bool;
  fr_capacity : int;
  fr_written : int;
  fr_dropped : int;
}

let fr_default_capacity = 256

let fr_on = ref false

let fr_slots : flight_entry option array ref =
  ref (Array.make fr_default_capacity None)

let fr_cursor = Atomic.make 0

(* Cursor position of the last auto-dump: automatic dumps emit only the
   entries recorded since the previous one, so a cascade of degradations
   produces incremental dumps instead of repeating the whole ring. *)
let fr_auto_cursor = ref 0

let fr_auto_dest : out_channel option ref = ref None

let refresh_active () = active := !current_sink <> None || !fr_on

let set_flight_recorder ?(capacity = fr_default_capacity) on =
  let capacity = Stdlib.max 1 capacity in
  if Array.length !fr_slots <> capacity then begin
    fr_slots := Array.make capacity None;
    Atomic.set fr_cursor 0;
    fr_auto_cursor := 0
  end;
  fr_on := on;
  refresh_active ()

let flight_recorder_enabled () = !fr_on

let fr_record e =
  let slots = !fr_slots in
  let i = Atomic.fetch_and_add fr_cursor 1 in
  slots.(i mod Array.length slots) <- Some e

let flight_event ~name ~detail =
  if !active && !fr_on then
    fr_record (F_event { at_ns = now_ns (); ev_name = name; detail })

let flight_reset () =
  Array.fill !fr_slots 0 (Array.length !fr_slots) None;
  Atomic.set fr_cursor 0;
  fr_auto_cursor := 0

let flight_stats () =
  let written = Atomic.get fr_cursor in
  let cap = Array.length !fr_slots in
  {
    fr_enabled = !fr_on;
    fr_capacity = cap;
    fr_written = written;
    fr_dropped = Stdlib.max 0 (written - cap);
  }

let set_flight_auto_dump dest = fr_auto_dest := dest

(* --- sink installation ---------------------------------------------------- *)

let set_sink s =
  clear_stacks ();
  controller := (Domain.self () :> int);
  current_sink := s;
  refresh_active ()

let enabled () = !active

let sink_installed () = !current_sink <> None

let current_depth () =
  match find_stack (self_id ()) with Some s -> List.length !s | None -> 0

let reset () =
  locked (fun () ->
      Hashtbl.reset registry;
      Hashtbl.reset family_sets);
  clear_stacks ()

(* --- metrics -------------------------------------------------------------- *)

let counter_ref name =
  match Hashtbl.find_opt registry name with
  | Some (I_counter r) -> r
  | Some _ -> invalid_arg (Printf.sprintf "Obs: %S is not a counter" name)
  | None ->
    let r = ref 0 in
    Hashtbl.add registry name (I_counter r);
    r

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (I_counter r) -> !r
      | _ -> 0)

let gauge name v =
  if !active then
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (I_gauge r) -> r := v
        | Some _ -> invalid_arg (Printf.sprintf "Obs: %S is not a gauge" name)
        | None -> Hashtbl.add registry name (I_gauge (ref v)))

(* Must hold [registry_m]. *)
let hist_push_locked name v =
  let h =
    match Hashtbl.find_opt registry name with
    | Some (I_hist h) -> h
    | Some _ ->
      invalid_arg (Printf.sprintf "Obs: %S is not a histogram" name)
    | None ->
      let h = new_hist_acc 16 in
      Hashtbl.add registry name (I_hist h);
      h
  in
  hist_push h v

(* --- labeled metrics ------------------------------------------------------- *)

(* Labels are encoded into the registry key itself as the canonical
   suffix [base{k="v",...}] — keys sorted, values escaped exactly as the
   Prometheus exposition format escapes label values (backslash, quote,
   newline).  A labeled series is therefore just another named
   instrument: the [metric] shape, snapshots and sinks all work
   unchanged, and [split_labeled] is the exact inverse the exposition
   layer (and `sider top`) uses to recover the label set.

   Cardinality is bounded per family: the first [max_label_sets]
   distinct label sets observed for a base name get their own series;
   every later one collapses into the overflow series whose label
   values are all ["other"].  Under an unbounded tenant population the
   registry therefore holds the first-seen top-K tenants plus one
   [other] bucket, never a series per tenant. *)

let label_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let labeled_name name labels =
  match labels with
  | [] -> name
  | _ ->
    let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    let buf = Buffer.create 64 in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (label_escape v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

let split_labeled composed =
  match String.index_opt composed '{' with
  | None -> (composed, [])
  | Some b ->
    let base = String.sub composed 0 b in
    let n = String.length composed in
    let labels = ref [] in
    let i = ref (b + 1) in
    (try
       while !i < n && composed.[!i] <> '}' do
         let eq = String.index_from composed !i '=' in
         let k = String.sub composed !i (eq - !i) in
         if eq + 1 >= n || composed.[eq + 1] <> '"' then raise Exit;
         let vbuf = Buffer.create 16 in
         let j = ref (eq + 2) in
         while
           !j < n && composed.[!j] <> '"'
         do
           if composed.[!j] = '\\' && !j + 1 < n then begin
             (match composed.[!j + 1] with
              | 'n' -> Buffer.add_char vbuf '\n'
              | c -> Buffer.add_char vbuf c);
             j := !j + 2
           end
           else begin
             Buffer.add_char vbuf composed.[!j];
             incr j
           end
         done;
         if !j >= n then raise Exit;
         labels := (k, Buffer.contents vbuf) :: !labels;
         i := !j + 1;
         if !i < n && composed.[!i] = ',' then incr i
       done
     with Exit | Not_found -> ());
    (base, List.rev !labels)

let default_max_label_sets = 32

let max_label_sets = ref default_max_label_sets

let set_max_label_sets n = max_label_sets := Stdlib.max 1 n

(* Must hold [registry_m].  Returns the registry key the write should
   land on: the composed key while the family is under its cardinality
   budget, the all-[other] overflow key afterwards. *)
let resolve_labeled name labels =
  let key = labeled_name name labels in
  if labels = [] || Hashtbl.mem registry key then key
  else begin
    let seen = Option.value ~default:0 (Hashtbl.find_opt family_sets name) in
    if seen < !max_label_sets then begin
      Hashtbl.replace family_sets name (seen + 1);
      key
    end
    else labeled_name name (List.map (fun (k, _) -> (k, "other")) labels)
  end

(* Every write takes [registry_m] and hashes its series key; a labeled
   one composes that key first (a sort, an escape and a buffer: 60–75
   words).  So a site records once per sweep or request, never per
   row or per constraint update (the obs-hygiene lint rule). *)
let count ?(by = 1) ?(labels = []) name =
  if !active then
    locked (fun () ->
        let r = counter_ref (resolve_labeled name labels) in
        r := !r + by)

let observe ?(labels = []) name v =
  if !active then
    locked (fun () -> hist_push_locked (resolve_labeled name labels) v)

(* --- GC telemetry --------------------------------------------------------- *)

(* Sampled when a root span closes on the controller: cheap enough to be
   invisible next to any span worth opening, frequent enough that the
   gauges track a long-running session. *)
let sample_gc () =
  let s = Gc.quick_stat () in
  gauge "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  gauge "gc.major_collections" (float_of_int s.Gc.major_collections);
  gauge "gc.promoted_words" s.Gc.promoted_words;
  gauge "gc.heap_words" (float_of_int s.Gc.heap_words)

(* --- spans ---------------------------------------------------------------- *)

let span_attr k v =
  match find_stack (self_id ()) with
  | Some { contents = fr :: _ } -> fr.f_attrs <- (k, v) :: fr.f_attrs
  | _ -> ()

(* Emit a completed span: into the flight recorder when it is on, and to
   the sink only on the controller domain, so sink callbacks never run
   on a worker domain. *)
let complete_span sp =
  if !fr_on then fr_record (F_span sp);
  match !current_sink with
  | Some sink when is_controller () ->
    sink.on_span sp;
    if sp.depth = 0 then sample_gc ()
  | _ -> ()

(* Close [fr]: pop down to (and including) its frame — anything above it
   means the body leaked open spans; close them implicitly rather than
   corrupt the stack — then time, optionally feed [hist], and emit. *)
let finish_span ~id ~stack ~hist fr =
  let rec pop = function
    | top :: rest -> if top == fr then stack := rest else pop rest
    | [] -> stack := []
  in
  pop !stack;
  (match !stack with [] -> drop_stack id stack | _ :: _ -> ());
  let dur = Int64.sub (now_ns ()) fr.f_start in
  let dur = if Int64.compare dur 0L < 0 then 0L else dur in
  (match hist with
   | None -> ()
   | Some h -> observe h (Int64.to_float dur /. 1e9));
  complete_span
    { name = fr.f_name; depth = fr.f_depth; start_ns = fr.f_start;
      dur_ns = dur; attrs = List.rev fr.f_attrs }

(* Shared body of [with_span] / [timed]: one clock read on open, one on
   close (the histogram sample reuses the span's own duration), and a
   hand-rolled unwind instead of [Fun.protect] — this path runs per
   solver sweep, so closure and exception-wrapper allocations are worth
   avoiding. *)
let with_span_core ~attrs ~hist name f =
  let id = self_id () in
  let stack = open_stack id in
  let fr =
    { f_name = name;
      f_depth = List.length !stack;
      f_start = now_ns ();
      f_attrs = List.rev attrs }
  in
  stack := fr :: !stack;
  match f () with
  | v ->
    finish_span ~id ~stack ~hist fr;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish_span ~id ~stack ~hist fr;
    Printexc.raise_with_backtrace e bt

let with_span ?(attrs = []) name f =
  if not !active then f () else with_span_core ~attrs ~hist:None name f

let timed ?(attrs = []) ~hist name f =
  if not !active then f ()
  else with_span_core ~attrs ~hist:(Some hist) name f

(* --- quantiles ------------------------------------------------------------ *)

(* Type-7 quantile on a sorted prefix: linear interpolation between the
   order statistics either side of [p (len - 1)].  Edge cases are pinned
   down by the qcheck suite: the empty histogram yields 0.0 (never NaN —
   a NaN would poison JSON output and the Prometheus exposition), and a
   single observation is its own quantile at every p. *)
let quantile_sorted sorted len p =
  if len = 0 then 0.0
  else if len = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (len - 1) in
    let lo = int_of_float (Float.floor h) in
    let lo = if lo < 0 then 0 else if lo > len - 1 then len - 1 else lo in
    let hi = if lo + 1 > len - 1 then len - 1 else lo + 1 in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  end

let quantile_type7 values p =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  quantile_sorted sorted (Array.length sorted) p

let metrics_snapshot () =
  locked (fun () ->
  Hashtbl.fold
    (fun name instr acc ->
      let m =
        match instr with
        | I_counter r -> Counter { name; total = !r }
        | I_gauge r -> Gauge { name; value = !r }
        | I_hist h ->
          let n = Stdlib.min h.count hist_window in
          let sorted = Array.sub h.values 0 n in
          Array.sort compare sorted;
          Histogram
            {
              name;
              count = h.count;
              sum = h.totals.sum;
              p50 = quantile_sorted sorted n 0.5;
              p95 = quantile_sorted sorted n 0.95;
              p99 = quantile_sorted sorted n 0.99;
              max = (if h.count = 0 then 0.0 else h.totals.peak);
            }
      in
      m :: acc)
    registry [])
  |> List.sort (fun a b ->
      let name = function
        | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } ->
          name
      in
      compare (name a) (name b))

let flush () =
  match !current_sink with
  | None -> ()
  | Some sink -> sink.on_metrics (metrics_snapshot ())

(* --- sinks ---------------------------------------------------------------- *)

let null_sink = { on_span = (fun _ -> ()); on_metrics = (fun _ -> ()) }

let pretty_duration ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.3f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1f us" (f /. 1e3)
  else Printf.sprintf "%Ld ns" ns

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let stderr_sink () =
  let attrs_to_string = function
    | [] -> ""
    | attrs ->
      "  ["
      ^ String.concat " "
          (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) attrs)
      ^ "]"
  in
  {
    on_span =
      (fun s ->
        Printf.eprintf "[trace] %s%-*s %10s%s\n%!"
          (String.make (2 * s.depth) ' ')
          (Stdlib.max 1 (40 - (2 * s.depth)))
          s.name
          (pretty_duration s.dur_ns)
          (attrs_to_string s.attrs));
    on_metrics =
      (fun metrics ->
        let counters, gauges, hists =
          List.fold_left
            (fun (c, g, h) m ->
              match m with
              | Counter _ -> (m :: c, g, h)
              | Gauge _ -> (c, m :: g, h)
              | Histogram _ -> (c, g, m :: h))
            ([], [], []) (List.rev metrics)
        in
        if counters <> [] then begin
          Printf.eprintf "[metrics] %-44s %12s\n" "counter" "total";
          List.iter
            (function
              | Counter { name; total } ->
                Printf.eprintf "[metrics] %-44s %12d\n" name total
              | _ -> ())
            counters
        end;
        if gauges <> [] then begin
          Printf.eprintf "[metrics] %-44s %12s\n" "gauge" "value";
          List.iter
            (function
              | Gauge { name; value } ->
                Printf.eprintf "[metrics] %-44s %12g\n" name value
              | _ -> ())
            gauges
        end;
        if hists <> [] then begin
          Printf.eprintf
            "[metrics] %-34s %8s %10s %10s %10s %10s %10s\n"
            "histogram" "count" "p50" "p95" "p99" "max" "sum";
          List.iter
            (function
              | Histogram { name; count; sum; p50; p95; p99; max } ->
                Printf.eprintf
                  "[metrics] %-34s %8d %10.4g %10.4g %10.4g %10.4g %10.4g\n"
                  name count p50 p95 p99 max sum
              | _ -> ())
            hists
        end;
        Stdlib.flush stderr)
  }

(* Minimal JSON emission: enough to serialize spans and metrics in a form
   [Sider_data.Json] parses back (the round-trip property test).  Kept
   local so this library depends on nothing. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_value = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let json_attrs attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v))
         attrs)
  ^ "}"

let span_to_json s =
  Printf.sprintf
    "{\"type\":\"span\",\"name\":\"%s\",\"depth\":%d,\"start_ns\":%Ld,\
     \"dur_ns\":%Ld,\"attrs\":%s}"
    (json_escape s.name) s.depth s.start_ns s.dur_ns (json_attrs s.attrs)

let metric_to_json = function
  | Counter { name; total } ->
    Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"total\":%d}"
      (json_escape name) total
  | Gauge { name; value } ->
    Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}"
      (json_escape name) (json_float value)
  | Histogram { name; count; sum; p50; p95; p99; max } ->
    Printf.sprintf
      "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum\":%s,\
       \"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
      (json_escape name) count (json_float sum) (json_float p50)
      (json_float p95) (json_float p99) (json_float max)

let json_sink emit =
  {
    on_span = (fun s -> emit (span_to_json s));
    on_metrics = (fun ms -> List.iter (fun m -> emit (metric_to_json m)) ms);
  }

type recording = {
  rec_sink : sink;
  spans : unit -> span list;
  metrics : unit -> metric list;
}

let recording_sink () =
  let spans = ref [] and metrics = ref [] in
  {
    rec_sink =
      {
        on_span = (fun s -> spans := s :: !spans);
        on_metrics = (fun ms -> metrics := List.rev_append ms !metrics);
      };
    spans = (fun () -> List.rev !spans);
    metrics = (fun () -> List.rev !metrics);
  }

(* --- flight recorder dumping ---------------------------------------------- *)

let flight_entry_to_json = function
  | F_span sp -> span_to_json sp
  | F_event { at_ns; ev_name; detail } ->
    Printf.sprintf
      "{\"type\":\"event\",\"at_ns\":%Ld,\"name\":\"%s\",\"detail\":\"%s\"}"
      at_ns (json_escape ev_name) (json_escape detail)

(* Entries currently held in the ring, oldest first, as JSON lines.
   [since] skips entries before that cursor position (used by the
   incremental auto-dump). *)
let flight_entries_since since =
  let slots = !fr_slots in
  let cap = Array.length slots in
  let hi = Atomic.get fr_cursor in
  let lo = Stdlib.max since (Stdlib.max 0 (hi - cap)) in
  let out = ref [] in
  for i = hi - 1 downto lo do
    match slots.(i mod cap) with
    | Some e -> out := flight_entry_to_json e :: !out
    | None -> ()
  done;
  (!out, hi)

let flight_entries () = fst (flight_entries_since 0)

let dump_flight_recorder ?(out = stderr) ~reason () =
  let lines, _ = flight_entries_since 0 in
  Printf.fprintf out
    "{\"type\":\"flight_recorder\",\"reason\":\"%s\",\"entries\":%d,\
     \"dropped\":%d}\n"
    (json_escape reason) (List.length lines) (flight_stats ()).fr_dropped;
  List.iter (fun l -> output_string out l; output_char out '\n') lines;
  Stdlib.flush out;
  List.length lines

let flight_auto_dump ?trace ~reason () =
  if !fr_on then
    match !fr_auto_dest with
    | None -> ()
    | Some out ->
      let lines, hi = flight_entries_since !fr_auto_cursor in
      fr_auto_cursor := hi;
      if lines <> [] then begin
        let trace_field =
          match trace with
          | None -> ""
          | Some id -> Printf.sprintf ",\"trace\":\"%s\"" (json_escape id)
        in
        Printf.fprintf out
          "{\"type\":\"flight_recorder\",\"reason\":\"%s\"%s,\"entries\":%d}\n"
          (json_escape reason) trace_field (List.length lines);
        List.iter (fun l -> output_string out l; output_char out '\n') lines;
        Stdlib.flush out
      end

(* --- environment hook ------------------------------------------------------ *)

(* SIDER_TRACE=stderr installs the tree printer, SIDER_TRACE=null the
   swallow-everything sink (metrics registry still accumulates).  Used by
   `make verify` to replay the whole suite with a live sink so a
   crashing sink cannot ship silently. *)
let install_from_env () =
  match Sys.getenv_opt "SIDER_TRACE" with
  | Some "stderr" -> set_sink (Some (stderr_sink ()))
  | Some "null" -> set_sink (Some null_sink)
  | Some _ | None -> ()
