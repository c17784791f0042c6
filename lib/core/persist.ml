open Sider_linalg
open Sider_data
open Sider_projection
open Sider_robust

(* Structured-diagnostic discipline: every malformed input surfaces as a
   [Sider_error.t] (Degenerate_data for bad content, Io_failure for
   filesystem faults), never a raw [Failure]/[Json.Parse_error]. *)

let corrupt fmt =
  Printf.ksprintf
    (fun msg -> Sider_error.raise_ (Sider_error.degenerate_data msg))
    fmt

let io_fail fmt =
  Printf.ksprintf
    (fun msg -> Sider_error.raise_ (Sider_error.io_failure msg))
    fmt

(* Run a parsing thunk, mapping the accessor exceptions of
   [Sider_data.Json] (and the [failwith]s below) onto structured errors
   carrying [what] as provenance. *)
let parsing what f =
  try f () with
  | Sider_error.Error _ as e -> raise e
  | Failure msg | Invalid_argument msg -> corrupt "%s: %s" what msg
  | Not_found -> corrupt "%s: required field missing" what
  | Json.Parse_error msg -> corrupt "%s: %s" what msg

(* --- checksums ------------------------------------------------------------- *)

(* FNV-1a 64-bit over the serialized payload: not cryptographic, but it
   reliably catches truncation, bit rot and hand editing, and needs no
   dependencies.  Rendered as 16 hex digits.  The hash lives in a local
   of the [for] loop, so it stays unboxed. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* Checksums are computed over the document serialized {e without} its
   [checksum] field; verification rebuilds that exact string from the
   parsed value, which is stable because the printer is deterministic
   and parsing preserves object field order.

   A document is written from one serialization: [head] (the [format]
   and [version] fields) followed by [rest] is printed once, hashed, and
   ["checksum":"…"] is spliced in right after [head] — the bytes a
   printed tree with the checksum after [version] would have. *)
let checksummed_text head rest =
  let body = Json.to_string (Json.Obj (head @ rest)) in
  let cut = String.length (Json.to_string (Json.Obj head)) - 1 in
  let field = ",\"checksum\":\"" ^ fnv64 body ^ "\"" in
  let n = String.length body and k = String.length field in
  let out = Bytes.create (n + k) in
  Bytes.blit_string body 0 out 0 cut;
  Bytes.blit_string field 0 out cut k;
  Bytes.blit_string body cut out (cut + k) (n - cut);
  Bytes.unsafe_to_string out

let verify_checksum ~what j =
  match j with
  | Json.Obj fields ->
    (match List.assoc_opt "checksum" fields with
     | None -> ()  (* format version 1: no checksum recorded *)
     | Some (Json.String recorded) ->
       let body =
         Json.Obj (List.filter (fun (k, _) -> k <> "checksum") fields)
       in
       let actual = fnv64 (Json.to_string body) in
       if not (String.equal actual recorded) then
         corrupt "%s: checksum mismatch (recorded %s, computed %s)" what
           recorded actual
     | Some _ -> corrupt "%s: checksum field is not a string" what)
  | _ -> ()

(* --- datasets --------------------------------------------------------------- *)

let dataset_to_json ds =
  let m = Dataset.matrix ds in
  let n, d = Mat.dims m in
  Json.Obj
    [ ("name", Json.String (Dataset.name ds));
      ("columns",
       Json.List
         (Array.to_list
            (Array.map (fun c -> Json.String c) (Dataset.columns ds))));
      ("labels",
       (match Dataset.labels ds with
        | None -> Json.Null
        | Some l ->
          Json.List (Array.to_list (Array.map (fun x -> Json.String x) l))));
      ("rows", Json.Number (float_of_int n));
      ("cols", Json.Number (float_of_int d));
      ("data",
       Json.List (List.init n (fun i -> Json.floats (Mat.row m i)))) ]

let dataset_of_json j =
  parsing "dataset" @@ fun () ->
  let name = Json.to_str (Json.member "name" j) in
  let columns =
    Json.to_list (Json.member "columns" j)
    |> List.map Json.to_str
    |> Array.of_list
  in
  let labels =
    match Json.member "labels" j with
    | Json.Null -> None
    | l -> Some (Json.to_list l |> List.map Json.to_str |> Array.of_list)
  in
  let rows = Json.to_list (Json.member "data" j) in
  let n = List.length rows in
  let d = Array.length columns in
  let m = Mat.create n d in
  List.iteri
    (fun i row ->
      let cells = Json.to_floats row in
      if Array.length cells <> d then
        corrupt "dataset: row %d has %d cells, expected %d" i
          (Array.length cells) d;
      Mat.set_row m i cells)
    rows;
  Dataset.create ~name ?labels ~columns m

(* --- events ----------------------------------------------------------------- *)

let method_to_json = function
  | View.Pca -> Json.String "pca"
  | View.Ica -> Json.String "ica"

let method_of_json j =
  match Json.to_str j with
  | "pca" -> View.Pca
  | "ica" -> View.Ica
  | other -> corrupt "unknown method %S" other

let event_to_json = function
  | Session.Added_cluster { rows; tag } ->
    Json.Obj
      [ ("event", Json.String "cluster"); ("rows", Json.ints rows);
        ("tag", Json.String tag) ]
  | Session.Added_two_d { rows; tag } ->
    Json.Obj
      [ ("event", Json.String "two_d"); ("rows", Json.ints rows);
        ("tag", Json.String tag) ]
  | Session.Added_margin -> Json.Obj [ ("event", Json.String "margin") ]
  | Session.Added_one_cluster ->
    Json.Obj [ ("event", Json.String "one_cluster") ]
  | Session.Updated { time_cutoff; max_sweeps } ->
    Json.Obj
      ([ ("event", Json.String "update");
         ("time_cutoff", Json.Number time_cutoff) ]
       @
       match max_sweeps with
       | Some s -> [ ("max_sweeps", Json.Number (float_of_int s)) ]
       | None -> [])
  | Session.Viewed m ->
    Json.Obj [ ("event", Json.String "view"); ("method", method_to_json m) ]

let replay_event session j =
  parsing "event" @@ fun () ->
  match Json.to_str (Json.member "event" j) with
  | "cluster" ->
    Session.add_cluster_constraint
      ~tag:(Json.to_str (Json.member "tag" j))
      session
      (Json.to_ints (Json.member "rows" j))
  | "two_d" ->
    Session.add_two_d_constraint
      ~tag:(Json.to_str (Json.member "tag" j))
      session
      (Json.to_ints (Json.member "rows" j))
  | "margin" -> Session.add_margin_constraint session
  | "one_cluster" -> Session.add_one_cluster_constraint session
  | "update" ->
    let time_cutoff = Json.to_float (Json.member "time_cutoff" j) in
    let max_sweeps = Option.map Json.to_int (Json.member_opt "max_sweeps" j) in
    (* An update is recorded whether or not its solve succeeded (the
       history entry is what keeps journal lines and history 1:1), and
       [update_background] records the attempt again here regardless of
       outcome.  A replayed failure has already rolled the session back
       to its checkpoint — keep replaying the remaining events on that
       state rather than aborting the load. *)
    (match Session.update_background ~time_cutoff ?max_sweeps session with
     | Ok _ | Error _ -> ())
  | "view" ->
    ignore
      (Session.recompute_view
         ~method_:(method_of_json (Json.member "method" j))
         session)
  | other -> corrupt "unknown event %S" other

(* --- session snapshots ------------------------------------------------------- *)

let format_version = 2

let creation_fields session =
  let seed, standardize, jitter, method_ = Session.creation_args session in
  [ ("seed", Json.Number (float_of_int seed));
    ("standardize", Json.Bool standardize);
    ("jitter", Json.Number jitter);
    ("method", method_to_json method_);
    ("dataset", dataset_to_json (Session.dataset session)) ]

let head format =
  [ ("format", Json.String format);
    ("version", Json.Number (float_of_int format_version)) ]

let session_text session =
  checksummed_text (head "sider-session")
    (creation_fields session
     @ [ ("history",
          Json.List (List.map event_to_json (Session.history session))) ])

let session_to_json session = Json.of_string (session_text session)

let check_format ~what ~expected j =
  (match Json.member_opt "format" j with
   | Some (Json.String f) when f = expected -> ()
   | Some (Json.String f) ->
     corrupt "%s: format is %S, expected %S" what f expected
   | _ -> corrupt "%s: not a %s document" what expected);
  let version =
    match Json.member_opt "version" j with
    | Some v -> parsing what (fun () -> Json.to_int v)
    | None -> 1
  in
  if version < 1 || version > format_version then
    corrupt "%s: unsupported format version %d (this build reads 1-%d)"
      what version format_version;
  (* Version 2 always writes a checksum, so its absence in a v2 file is
     itself corruption (e.g. a flipped byte inside the field name) —
     only genuine version-1 files may go checksum-less. *)
  (match j with
   | Json.Obj fields
     when version >= 2 && not (List.mem_assoc "checksum" fields) ->
     corrupt "%s: version %d document without its checksum field" what
       version
   | _ -> ());
  verify_checksum ~what j

let create_session_of_json ~what j =
  parsing what @@ fun () ->
  let ds = dataset_of_json (Json.member "dataset" j) in
  Session.create
    ~seed:(Json.to_int (Json.member "seed" j))
    ~standardize:(Json.to_bool (Json.member "standardize" j))
    ~jitter:(Json.to_float (Json.member "jitter" j))
    ~method_:(method_of_json (Json.member "method" j))
    ds

let session_of_json j =
  check_format ~what:"snapshot" ~expected:"sider-session" j;
  let session = create_session_of_json ~what:"snapshot" j in
  List.iter
    (replay_event session)
    (parsing "snapshot" (fun () -> Json.to_list (Json.member "history" j)));
  session

(* --- atomic file IO ---------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(* Write [data] to [path] (truncating) and fsync before returning. *)
let write_fsync path data =
  try
    let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd data;
        Unix.fsync fd)
  with Unix.Unix_error (err, _, _) ->
    io_fail "Persist: write %s: %s" path (Unix.error_message err)

let rename_into tmp path =
  try Sys.rename tmp path with
  | Sys_error msg -> io_fail "Persist: rename over %s failed: %s" path msg

(* tmp + fsync + rename: a crash at any point leaves either the old
   complete file or the new complete file, never a torn one.  The tmp
   file lives in the destination directory so the rename cannot cross a
   filesystem boundary. *)
let save_atomic path data =
  let tmp = path ^ ".tmp" in
  write_fsync tmp data;
  rename_into tmp path

let save path session = save_atomic path (session_text session)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        really_input_string ic len)
  with Sys_error msg -> io_fail "Persist: cannot read %s: %s" path msg

let load path =
  let text = read_file path in
  let j =
    try Json.of_string text with
    | Json.Parse_error msg -> corrupt "snapshot %s: %s" path msg
  in
  session_of_json j

let load_result path = Sider_error.protect (fun () -> load path)

(* --- write-ahead journal ------------------------------------------------------ *)

(* One line per record, each a self-contained JSON document:

     {"format":"sider-journal","version":2,"checksum":"…",…creation…}
     {"event":"margin"}
     {"event":"update","time_cutoff":10}
     …

   Appends write the full line (including the trailing newline) in one
   [write] and fsync before the caller acknowledges anything, so a line
   that ends in a newline on disk is a complete, acknowledged-able
   record.  Recovery therefore drops an unterminated tail (the in-flight
   append a crash interrupted) but treats an unparseable {e terminated}
   line as real corruption.

   Compaction folds a long journal into a sibling snapshot plus a fresh
   (near-empty) journal whose header carries a ["base"] field: the
   number of history events the header's creation state stands for.  For
   an uncompacted journal the header's history is empty and [base] is
   omitted (= 0).  Recovery prefers the sibling snapshot when one
   exists; the first [snapshot_events - base] journal lines duplicate
   events the snapshot already holds (a crash between the two compaction
   renames leaves the old journal next to the new snapshot), so they are
   validated but not replayed.  Both orderings of snapshot/journal
   visibility are therefore deterministic — see [journal_compact]. *)

type journal = {
  j_path : string;
  mutable j_fd : Unix.file_descr option;
  mutable j_events : int;
  mutable j_base : int;
}

let snapshot_path path =
  if Filename.check_suffix path ".journal" then
    Filename.chop_suffix path ".journal" ^ ".snapshot"
  else path ^ ".snapshot"

let journal_header ?(base = 0) session =
  checksummed_text (head "sider-journal")
    ((if base = 0 then [] else [ ("base", Json.Number (float_of_int base)) ])
     @ creation_fields session)

let journal_write j line =
  match j.j_fd with
  | None -> io_fail "Persist.journal %s: already closed" j.j_path
  | Some fd ->
    if Fault.journal_append_should_fail ~path:j.j_path then
      io_fail "Persist.journal %s: injected append failure" j.j_path;
    (try
       write_all fd (line ^ "\n");
       Unix.fsync fd
     with Unix.Unix_error (err, _, _) ->
       io_fail "Persist.journal %s: append failed: %s" j.j_path
         (Unix.error_message err))

let journal_append j event =
  journal_write j (Json.to_string (event_to_json event));
  j.j_events <- j.j_events + 1

let journal_start path session =
  let fd =
    try Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 with
    | Unix.Unix_error (err, _, _) ->
      io_fail "Persist.journal %s: cannot create: %s" path
        (Unix.error_message err)
  in
  let j = { j_path = path; j_fd = Some fd; j_events = 0; j_base = 0 } in
  journal_write j (journal_header session);
  List.iter (journal_append j) (Session.history session);
  j

let journal_close j =
  match j.j_fd with
  | None -> ()
  | Some fd ->
    j.j_fd <- None;
    (* No fsync here: [journal_write] syncs before every acknowledgement,
       so the file holds no unflushed acked data.  Eviction sweeps close
       journals in bursts, and a redundant fsync per close contends with
       request-path syncs. *)
    (try Unix.close fd with Unix.Unix_error _ -> ())

let journal_path j = j.j_path

let journal_events j = j.j_events

let journal_base j = j.j_base

(* Split journal text into (line, terminated) pairs. *)
let journal_lines text =
  let rec go acc start =
    if start >= String.length text then List.rev acc
    else
      match String.index_from_opt text start '\n' with
      | Some i ->
        go ((String.sub text start (i - start), true) :: acc) (i + 1)
      | None ->
        List.rev
          ((String.sub text start (String.length text - start), false) :: acc)
  in
  go [] 0

(* Core recovery scan.  Returns the session, the total number of events
   restored (snapshot + journal), the number of intact event lines in
   the journal file, the byte offset of the end of the last intact
   record (so a reopen can truncate the dropped tail before appending)
   and the header's [base]. *)
let journal_scan path =
  let text = read_file path in
  match journal_lines text with
  | [] -> corrupt "journal %s: empty file" path
  | (header_line, header_terminated) :: events ->
    if not header_terminated then
      corrupt "journal %s: truncated header" path;
    let header =
      try Json.of_string header_line with
      | Json.Parse_error msg -> corrupt "journal %s: header: %s" path msg
    in
    check_format ~what:(Printf.sprintf "journal %s" path)
      ~expected:"sider-journal" header;
    let base =
      match Json.member_opt "base" header with
      | None -> 0
      | Some b ->
        parsing (Printf.sprintf "journal %s" path) (fun () -> Json.to_int b)
    in
    let snap = snapshot_path path in
    let snapshot =
      if Sys.file_exists snap then begin
        let sj =
          try Json.of_string (read_file snap) with
          | Json.Parse_error msg -> corrupt "snapshot %s: %s" snap msg
        in
        Some (session_of_json sj)
      end
      else None
    in
    let session, skip =
      match snapshot with
      | None ->
        if base > 0 then
          corrupt
            "journal %s: header base is %d but sibling snapshot %s is \
             missing"
            path base snap;
        ( create_session_of_json ~what:(Printf.sprintf "journal %s" path)
            header,
          0 )
      | Some s ->
        let sn = List.length (Session.history s) in
        if sn < base then
          corrupt
            "journal %s: sibling snapshot %s holds %d event(s) but the \
             journal base is %d"
            path snap sn base;
        (s, sn - base)
    in
    let applied = ref (List.length (Session.history session)) in
    let lines = ref 0 in
    let to_skip = ref skip in
    let good_len = ref (String.length header_line + 1) in
    let rec replay = function
      | [] -> ()
      | (line, terminated) :: rest ->
        let last = rest = [] in
        if line = "" && last then ()
        else begin
          match
            (* An unterminated tail is the append a crash interrupted:
               the client was never acknowledged, dropping it is the
               contract.  A terminated line must parse and replay. *)
            if terminated then Some (Json.of_string line)
            else (try Some (Json.of_string line) with _ -> None)
          with
          | None -> ()  (* unterminated, unparseable: dropped tail *)
          | exception Json.Parse_error msg ->
            corrupt "journal %s: event %d: %s" path (!lines + 1) msg
          | Some j ->
            if terminated then begin
              (* Leading lines the sibling snapshot already captures are
                 validated and kept on disk but not replayed — a crash
                 between the compaction renames leaves the old journal
                 next to the new snapshot, and replaying them would
                 double-apply. *)
              if !to_skip > 0 then decr to_skip
              else begin
                replay_event session j;
                incr applied
              end;
              incr lines;
              good_len := !good_len + String.length line + 1;
              replay rest
            end
            (* A parseable but unterminated final line still lacks the
               newline the append writes before acknowledging: treat it
               as in-flight and drop it. *)
        end
    in
    replay events;
    if !to_skip > 0 then
      corrupt
        "journal %s: sibling snapshot %s is %d event(s) ahead of the \
         journal contents"
        path snap !to_skip;
    (session, !applied, !lines, !good_len, base)

let journal_load path =
  Sider_error.protect (fun () ->
      let session, applied, _, _, _ = journal_scan path in
      (session, applied))

let journal_reopen path =
  Sider_error.protect (fun () ->
      let session, _, lines, good_len, base = journal_scan path in
      let fd =
        try Unix.openfile path [ O_WRONLY ] 0o644 with
        | Unix.Unix_error (err, _, _) ->
          io_fail "Persist.journal %s: cannot reopen: %s" path
            (Unix.error_message err)
      in
      (try
         Unix.ftruncate fd good_len;
         ignore (Unix.lseek fd good_len Unix.SEEK_SET)
       with Unix.Unix_error (err, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         io_fail "Persist.journal %s: cannot truncate tail: %s" path
           (Unix.error_message err));
      (session, { j_path = path; j_fd = Some fd; j_events = lines; j_base = base }))

(* Compaction rewrites journal state as snapshot-plus-empty-journal with
   two atomic renames, snapshot first.  Every crash point leaves a
   recoverable store:

   - before the snapshot rename: old snapshot (if any) + old journal,
     untouched;
   - after the snapshot rename, before the journal rename: new snapshot
     + old journal — recovery skips every journal line (all are covered
     by the snapshot, see [journal_scan]);
   - after the journal rename: new snapshot + fresh journal whose
     [base] marks the snapshot's events as already applied.

   The numbered [Fault.crash_compaction_at] polls pin exactly those
   windows for the crash-injection property tests. *)
let journal_compact j session =
  (match j.j_fd with
   | None -> io_fail "Persist.journal %s: already closed" j.j_path
   | Some _ -> ());
  let path = j.j_path in
  let snap = snapshot_path path in
  Fault.crash_compaction_at ~path ~point:0;
  let snap_tmp = snap ^ ".tmp" in
  write_fsync snap_tmp (session_text session);
  Fault.crash_compaction_at ~path ~point:1;
  rename_into snap_tmp snap;
  Fault.crash_compaction_at ~path ~point:2;
  let base = List.length (Session.history session) in
  let jrn_tmp = path ^ ".compact.tmp" in
  write_fsync jrn_tmp (journal_header ~base session ^ "\n");
  Fault.crash_compaction_at ~path ~point:3;
  (* From here the old descriptor must receive no further appends: close
     it before the rename publishes the fresh journal, and leave the
     handle closed if anything below fails, so a stray append errors out
     instead of landing in an unlinked file. *)
  (match j.j_fd with
   | Some fd ->
     j.j_fd <- None;
     (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  rename_into jrn_tmp path;
  let fd =
    try Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 with
    | Unix.Unix_error (err, _, _) ->
      io_fail "Persist.journal %s: cannot reopen after compaction: %s" path
        (Unix.error_message err)
  in
  j.j_fd <- Some fd;
  j.j_base <- base;
  j.j_events <- 0
