(* Concurrent session registry for the multi-tenant service.  The
   table itself is guarded by one mutex (operations on it are cheap:
   lookup, insert, remove); each entry additionally carries its own
   lock serializing all access to the mutable [Session.t] and its
   journal, so two analysts never interleave inside one session while
   different sessions proceed in parallel.

   Lifecycle: a journaled entry is either {e resident} (session and
   journal handle live) or {e evicted} (only the journal file remains;
   [resident = None]).  Eviction and rehydration both happen with the
   entry lock held, so no request can observe a half-built session:
   [session] below either returns the live state or replays the journal
   to completion before returning.  [max_sessions] therefore bounds the
   number of {e resident} sessions — the memory actually held — not the
   number of tenants on disk. *)

open Sider_core
open Sider_robust
module Obs = Sider_obs.Obs

type entry = {
  id : string;
  lock : Mutex.t;
  j_path : string option;
  mutable resident : Session.t option;
  mutable journal : Persist.journal option;
  mutable closed : bool;
  mutable last_touch : float;
}

type t = {
  table : (string, entry) Hashtbl.t;
  reg_lock : Mutex.t;
  data_dir : string option;
  max_sessions : int;
  compact_events : int;
  mutable next_id : int;
}

let create ?data_dir ?(max_sessions = 4096) ?(compact_events = 0) () =
  (match data_dir with
   | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
   | _ -> ());
  { table = Hashtbl.create 64;
    reg_lock = Mutex.create ();
    data_dir;
    max_sessions;
    compact_events;
    next_id = 1 }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let journal_file dir id = Filename.concat dir (id ^ ".journal")

let count t = with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () -> Hashtbl.length t.table)

let ids t =
  with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.table []
      |> List.sort compare)

let find t id = with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () -> Hashtbl.find_opt t.table id)

let resident_count_locked t =
  Hashtbl.fold
    (fun _ e acc -> match e.resident with Some _ -> acc + 1 | None -> acc)
    t.table 0

let resident_count t = with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () -> resident_count_locked t)

let touch entry = entry.last_touch <- Unix.gettimeofday ()

(* Must be called with [entry.lock] held.  An evicted entry is
   rehydrated by replaying its journal (snapshot-aware, see Persist)
   before anything else sees it — the lock makes rehydration atomic
   from every other thread's point of view. *)
let session ?trace entry =
  match entry.resident with
  | Some s -> s
  | None ->
    (match entry.j_path with
     | None ->
       Sider_error.raise_
         (Sider_error.io_failure
            (Printf.sprintf "session %s: evicted without a journal" entry.id))
     | Some path ->
       let attrs =
         ("id", Obs.Str entry.id)
         :: (match trace with
             | Some id -> [ ("trace", Obs.Str id) ]
             | None -> [])
       in
       Obs.with_span ~attrs "registry.rehydrate" @@ fun () ->
       (match Persist.journal_reopen path with
        | Error e -> Sider_error.raise_ e
        | Ok (s, j) ->
          entry.resident <- Some s;
          entry.journal <- Some j;
          Obs.count "serve.rehydrations";
          s))

(* Drop an entry's resident state, keeping its journal file for
   rehydration.  Caller holds [entry.lock]; returns false when there is
   nothing to evict. *)
let evict_entry_locked e =
  match (e.resident, e.j_path) with
  | Some _, Some _ when not e.closed ->
    (match e.journal with
     | Some j -> Persist.journal_close j
     | None -> ());
    e.journal <- None;
    e.resident <- None;
    true
  | _ -> false

(* Under [reg_lock]: evict the least-recently-touched un-busy journaled
   resident.  [try_lock] skips sessions with a request in flight rather
   than blocking the admission path on them. *)
let evict_one_locked t =
  let candidates =
    Hashtbl.fold
      (fun _ e acc ->
        match (e.resident, e.j_path) with
        | Some _, Some _ when not e.closed -> e :: acc
        | _ -> acc)
      t.table []
    |> List.sort (fun a b -> compare a.last_touch b.last_touch)
  in
  let rec go = function
    | [] -> false
    | e :: rest ->
      if Mutex.try_lock e.lock [@sider.lock "entry"] then (
        let evicted =
          Fun.protect
            ~finally:(fun () -> Mutex.unlock e.lock)
            (fun () -> evict_entry_locked e)
        in
        if evicted then true else go rest)
      else go rest
  in
  go candidates

let evict_idle t ~ttl_s =
  if ttl_s <= 0.0 then 0
  else begin
    let now = Unix.gettimeofday () in
    let stale =
      with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
          Hashtbl.fold
            (fun _ e acc ->
              match (e.resident, e.j_path) with
              | Some _, Some _
                when (not e.closed) && now -. e.last_touch >= ttl_s ->
                e :: acc
              | _ -> acc)
            t.table [])
    in
    let evicted = ref 0 in
    List.iter
      (fun e ->
        (* Re-check idleness under the entry lock: the entry may have
           been touched or removed since the snapshot above. *)
        if Mutex.try_lock e.lock [@sider.lock "entry"] then
          Fun.protect
            ~finally:(fun () -> Mutex.unlock e.lock)
            (fun () ->
              if
                Unix.gettimeofday () -. e.last_touch >= ttl_s
                && evict_entry_locked e
              then incr evicted))
      stale;
    if !evicted > 0 then Obs.count ~by:!evicted "serve.evictions";
    Obs.gauge "serve.resident_sessions"
      (float_of_int (resident_count t));
    !evicted
  end

(* Fold the entry's journal into a snapshot once it has grown past the
   registry's threshold.  Caller holds [entry.lock] and has just
   appended (and acknowledged) an event, so an IO failure here must not
   fail the request — the journal handle is left closed and the next
   append surfaces the fault instead.  An injected compaction crash
   propagates: it simulates process death. *)
let maybe_compact t entry =
  match (entry.journal, entry.resident) with
  | Some j, Some s
    when t.compact_events > 0 && Persist.journal_events j >= t.compact_events
    -> (
    let t0 = Obs.now_ns () in
    try
      Persist.journal_compact j s;
      Obs.count "serve.compactions";
      Obs.observe "serve.compaction_s"
        (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9)
    with
    | Fault.Crash_injected as e -> raise e
    | Sider_error.Error _ -> Obs.count "serve.compaction_failures")
  | _ -> ()

let add t sess =
  with_lock (t.reg_lock [@sider.lock "reg_lock"]) @@ fun () ->
  let admitted =
    if resident_count_locked t < t.max_sessions then true
    else if evict_one_locked t then (
      Obs.count "serve.evictions";
      true)
    else false
  in
  if not admitted then Error `Full
  else (
    let id = Printf.sprintf "s-%d" t.next_id in
    match
      (* The journal create+fsync runs under reg_lock deliberately: the
         capacity check, id reservation and journal truncation must be
         atomic, or a concurrent [add]/[recover] could reuse the id and
         [journal_start] would truncate a live session's journal.  It is
         not cheap: the header line carries the whole dataset, so every
         other lookup waits for one serialisation, checksum and fsync of
         it, 10–13 ms at n=1024, d=16 on a 2-vCPU VM.  Steady-state
         appends happen under the entry lock only. *)
      Option.map
        (fun dir ->
          (Persist.journal_start (journal_file dir id) sess
           [@sider.allow "blocking-under-lock"]))
        t.data_dir
    with
    | exception Sider_error.Error e -> Error (`Io e)
    | journal ->
      t.next_id <- t.next_id + 1;
      let entry =
        { id;
          lock = Mutex.create ();
          j_path = Option.map (fun dir -> journal_file dir id) t.data_dir;
          resident = Some sess;
          journal;
          closed = false;
          last_touch = Unix.gettimeofday () }
      in
      Hashtbl.replace t.table id entry;
      Obs.gauge "serve.resident_sessions"
        (float_of_int (resident_count_locked t));
      Ok entry)

(* Removal closes the journal and deletes its file (and any sibling
   compaction snapshot) — a deleted session must not resurrect at the
   next boot.  Runs under both the registry lock (table mutation) and
   the entry lock (so an in-flight request on the same session finishes
   first and later requests see [closed]). *)
let remove t id =
  match find t id with
  | None -> None
  | Some entry ->
    with_lock (entry.lock [@sider.lock "entry"]) (fun () ->
        if entry.closed then ()
        else (
          entry.closed <- true;
          (match entry.journal with
           | Some j -> Persist.journal_close j
           | None -> ());
          entry.journal <- None;
          entry.resident <- None;
          match entry.j_path with
          | Some path ->
            (try Sys.remove path with Sys_error _ -> ());
            (try Sys.remove (Persist.snapshot_path path)
             with Sys_error _ -> ())
          | None -> ()));
    with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () -> Hashtbl.remove t.table id);
    Some entry

(* Boot-time recovery: replay every [*.journal] in the data directory.
   One corrupt tenant must not take the service down, so per-file
   failures are collected and returned while the healthy sessions come
   up.  [next_id] is advanced past every journal {e filename} seen —
   including ones that fail to replay — before anything else: a corrupt
   journal stays on disk for repair, and handing its numeric id to a
   new session would let [Persist.journal_start] truncate it away. *)
let recover t =
  match t.data_dir with
  | None -> []
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".journal")
      |> List.sort compare
    in
    with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
        List.iter
          (fun file ->
            let id = Filename.chop_suffix file ".journal" in
            match String.index_opt id '-' with
            | Some i ->
              (match
                 int_of_string_opt
                   (String.sub id (i + 1) (String.length id - i - 1))
               with
               | Some n when n >= t.next_id -> t.next_id <- n + 1
               | _ -> ())
            | None -> ())
          files);
    let failures =
      List.filter_map
        (fun file ->
          let path = Filename.concat dir file in
          let id = Filename.chop_suffix file ".journal" in
          match Persist.journal_reopen path with
          | Error e -> Some (path, e)
          | Ok (sess, journal) ->
            with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
                Hashtbl.replace t.table id
                  { id;
                    lock = Mutex.create ();
                    j_path = Some path;
                    resident = Some sess;
                    journal = Some journal;
                    closed = false;
                    last_touch = Unix.gettimeofday () });
            None)
        files
    in
    (* The directory can hold more tenants than [max_sessions]; evict
       back down so boot respects the configured resident bound even
       when TTL eviction is off (journals are already on disk, so the
       evicted tenants rehydrate on first touch). *)
    with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
        let dropped = ref 0 in
        while
          resident_count_locked t > t.max_sessions && evict_one_locked t
        do
          incr dropped
        done;
        if !dropped > 0 then Obs.count ~by:!dropped "serve.evictions";
        Obs.gauge "serve.resident_sessions"
          (float_of_int (resident_count_locked t)));
    failures

let close t =
  let entries =
    with_lock (t.reg_lock [@sider.lock "reg_lock"]) (fun () ->
        Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  in
  List.iter
    (fun entry ->
      with_lock (entry.lock [@sider.lock "entry"]) (fun () ->
          (match entry.journal with
           | Some j -> Persist.journal_close j
           | None -> ());
          entry.journal <- None;
          entry.closed <- true))
    entries
