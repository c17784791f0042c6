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
let fnv_offset = 0xcbf29ce484222325L

let fnv64_bytes h b pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let hex64 h = Printf.sprintf "%016Lx" h

let fnv64 s =
  hex64 (fnv64_bytes fnv_offset (Bytes.unsafe_of_string s) 0 (String.length s))

(* Checksums are computed over the document serialized {e without} its
   [checksum] field; verification rebuilds that exact string from the
   parsed value, which is stable because the printer is deterministic
   and parsing preserves object field order. *)
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

(* A dataset as a decoder reads it, before anything is checked: the
   small fields as trees, the first of each key kept (as [Json.member]
   finds it), and the data rows' cells in blocks of [block] floats, small
   enough for the minor heap.  [validate] then refuses bad content with
   the error the tree accessors always gave, whichever decoder filled it,
   and copies the cells into one array of exactly their number, so a
   decode leaves no larger array behind.  Of the rows' widths it keeps
   row 0's and the first that differs from it: all it takes to find the
   first row of the wrong width. *)
let block = 256

type rows = {
  mutable full : float array list;  (* filled blocks, newest first *)
  mutable cur : float array;  (* the block being filled: [fill] cells *)
  mutable fill : int;
  mutable len : int;  (* cells read *)
  mutable n : int;  (* rows read *)
  mutable row_start : int;  (* [len] when the current row began *)
  mutable width0 : int;  (* row 0's cells *)
  mutable odd_row : int;  (* first row whose width is not row 0's, or -1 *)
  mutable odd_width : int;
  mutable bad_row : int;  (* first row that is not a list of numbers, or -1 *)
  mutable bad_msg : string;
}

type fields = {
  mutable is_object : bool;
  mutable name : Json.t option;
  mutable columns : Json.t option;
  mutable labels : Json.t option;
  mutable data : [ `Missing | `Not_list | `Rows of rows ];
}

let no_fields () =
  { is_object = false; name = None; columns = None; labels = None;
    data = `Missing }

let no_rows () =
  { full = []; cur = [||]; fill = 0; len = 0; n = 0; row_start = 0;
    width0 = 0; odd_row = -1; odd_width = 0; bad_row = -1; bad_msg = "" }

(* Makes room for the next cell, which then goes to [r.cur.(r.fill)]. *)
let reserve r =
  if r.fill = Array.length r.cur then begin
    if r.fill > 0 then r.full <- r.cur :: r.full;
    r.cur <- Array.create_float block;
    r.fill <- 0
  end

let cell_read r =
  r.fill <- r.fill + 1;
  r.len <- r.len + 1

let bad r msg =
  if r.bad_row < 0 then begin
    r.bad_row <- r.n;
    r.bad_msg <- msg
  end

let end_row r =
  let width = r.len - r.row_start in
  if r.n = 0 then r.width0 <- width
  else if r.odd_row < 0 && width <> r.width0 then begin
    r.odd_row <- r.n;
    r.odd_width <- width
  end;
  r.n <- r.n + 1;
  r.row_start <- r.len

(* The cells read, in one array of exactly their number. *)
let cells r =
  let a = Array.create_float r.len in
  let pos = r.len - r.fill in
  Array.blit r.cur 0 a pos r.fill;
  ignore
    (List.fold_left
       (fun pos b ->
         let pos = pos - block in
         Array.blit b 0 a pos block;
         pos)
       pos r.full);
  a

let not_a_list = "Json.to_list: not a list"

let not_a_number = "Json.to_float: not a number"

(* Labels name a few classes many times over: equal labels share one
   string. *)
let shared_strings j =
  let seen = Hashtbl.create 16 in
  Json.to_list j
  |> List.map (fun x ->
      let l = Json.to_str x in
      match Hashtbl.find_opt seen l with
      | Some shared -> shared
      | None ->
        Hashtbl.add seen l l;
        l)
  |> Array.of_list

let validate f =
  parsing "dataset" @@ fun () ->
  if not f.is_object then invalid_arg "Json.member: not an object";
  let required = function Some v -> v | None -> raise Not_found in
  let strings j = Json.to_list j |> List.map Json.to_str |> Array.of_list in
  let name = Json.to_str (required f.name) in
  let columns = strings (required f.columns) in
  let labels =
    match required f.labels with
    | Json.Null -> None
    | l -> Some (shared_strings l)
  in
  let r =
    match f.data with
    | `Missing -> raise Not_found
    | `Not_list -> invalid_arg not_a_list
    | `Rows r -> r
  in
  let d = Array.length columns in
  (* The first row that [Json.to_floats] then the width check refuse,
     row by row in order. *)
  let wrong = if r.n = 0 then -1 else if r.width0 <> d then 0 else r.odd_row in
  if r.bad_row >= 0 && (wrong < 0 || r.bad_row <= wrong) then
    invalid_arg r.bad_msg;
  if wrong >= 0 then
    corrupt "dataset: row %d has %d cells, expected %d" wrong
      (if wrong = 0 then r.width0 else r.odd_width)
      d;
  Dataset.create ~name ?labels ~columns (Mat.of_array r.n d (cells r))

let dataset_of_json j =
  let f = no_fields () in
  (match j with
   | Json.Obj kvs ->
     f.is_object <- true;
     f.name <- List.assoc_opt "name" kvs;
     f.columns <- List.assoc_opt "columns" kvs;
     f.labels <- List.assoc_opt "labels" kvs;
     f.data <-
       (match List.assoc_opt "data" kvs with
        | None -> `Missing
        | Some (Json.List rows) ->
          let r = no_rows () in
          List.iter
            (fun row ->
              (match row with
               | Json.List cells ->
                 List.iter
                   (function
                     | Json.Number x ->
                       reserve r;
                       r.cur.(r.fill) <- x;
                       cell_read r
                     | _ -> bad r not_a_number)
                   cells
               | _ -> bad r not_a_list);
              end_row r)
            rows;
          `Rows r
        | Some _ -> `Not_list)
   | _ -> ());
  validate f

(* The [data] value at the cursor, each number read into place. *)
let read_rows c =
  match Json.peek c with
  | `List ->
    let r = no_rows () in
    let cell () =
      match Json.peek c with
      | `Number ->
        reserve r;
        Json.read_number_into c r.cur r.fill;
        cell_read r
      | _ ->
        ignore (Json.read_value c);
        bad r not_a_number
    in
    let row () =
      (match Json.peek c with
       | `List -> Json.read_array c cell
       | _ ->
         ignore (Json.read_value c);
         bad r not_a_list);
      end_row r
    in
    Json.read_array c row;
    `Rows r
  | _ ->
    ignore (Json.read_value c);
    `Not_list

let read_dataset c =
  let f = no_fields () in
  (* A repeated key is read, for its syntax, and dropped. *)
  let first slot =
    let v = Json.read_value c in
    if Option.is_none slot then Some v else slot
  in
  (match Json.peek c with
   | `Obj ->
     f.is_object <- true;
     Json.read_object c (function
       | "name" -> f.name <- first f.name
       | "columns" -> f.columns <- first f.columns
       | "labels" -> f.labels <- first f.labels
       | "data" ->
         (match f.data with
          | `Missing -> f.data <- read_rows c
          | `Not_list | `Rows _ -> ignore (Json.read_value c))
       | _ -> ignore (Json.read_value c))
   | _ -> ignore (Json.read_value c));
  fun () -> validate f

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

let event_of_json j =
  match Json.to_str (Json.member "event" j) with
  | "cluster" ->
    let rows = Json.to_ints (Json.member "rows" j) in
    Session.Added_cluster { rows; tag = Json.to_str (Json.member "tag" j) }
  | "two_d" ->
    let rows = Json.to_ints (Json.member "rows" j) in
    Session.Added_two_d { rows; tag = Json.to_str (Json.member "tag" j) }
  | "margin" -> Session.Added_margin
  | "one_cluster" -> Session.Added_one_cluster
  | "update" ->
    let time_cutoff = Json.to_float (Json.member "time_cutoff" j) in
    let max_sweeps = Option.map Json.to_int (Json.member_opt "max_sweeps" j) in
    Session.Updated { time_cutoff; max_sweeps }
  | "view" -> Session.Viewed (method_of_json (Json.member "method" j))
  | other -> corrupt "unknown event %S" other

(* An update is recorded whether or not its solve succeeded (the history
   entry is what keeps journal lines and history 1:1), and replaying it
   records the attempt again regardless of outcome.  A replayed failure
   has already rolled the session back to its checkpoint: the remaining
   events replay on that state rather than aborting the load. *)
let replay_event session j =
  parsing "event" @@ fun () -> Session.apply session (event_of_json j)

(* --- session snapshots ------------------------------------------------------- *)

let format_version = 2

(* A checksummed document goes straight to its file through one small
   buffer: [format] and [version], the checksum's gap, the fields the
   caller prints, the closing brace.  The buffer fits the minor heap (256
   words, a byte of them the string's padding), so a document of any
   size puts nothing on the major heap, and it is written out once half
   full, between rows, labels and events, so an item of up to 1 KiB
   never grows it.  FNV-1a is accumulated over the bytes as they leave,
   skipping the gap, so it is taken over the document without its
   [checksum] field, which is what [verify_checksum] re-prints.  Its 16
   digits are then written back into the gap, before the caller's fsync:
   a crash before that leaves the placeholder, a document recovery
   refuses, as it refuses a torn one. *)
type out = {
  fd : Unix.file_descr;
  w : Json.writer;
  mutable sent : int;  (* bytes written to [fd] *)
  mutable hash : int64;  (* over the bytes sent, less the gap *)
  mutable gap : int;  (* the gap's offset in the file *)
  mutable stop : int;  (* the document's end: a newline after it is not hashed *)
}

let buffer_bytes = 2040

let flush_bytes = 1020

let checksum_gap = ",\"checksum\":\"0000000000000000\""

let write_all fd b len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd b !sent (len - !sent)
  done

(* Hashes the bytes at file offsets [lo, hi), which the buffer holds. *)
let hash_range o b lo hi =
  if lo < hi then o.hash <- fnv64_bytes o.hash b (lo - o.sent) (hi - lo)

let flush o =
  let b = Json.bytes o.w and n = Json.length o.w in
  let lo = o.sent and hi = min (o.sent + n) o.stop in
  hash_range o b lo (min hi o.gap);
  hash_range o b (max lo (o.gap + String.length checksum_gap)) hi;
  write_all o.fd b n;
  o.sent <- o.sent + n;
  Json.clear o.w

let tick o = if Json.length o.w >= flush_bytes then flush o

(* Streams a document into [fd], a file opened for it and empty, then
   writes its checksum into the gap; [newline] follows the closing
   brace.  [path] names the file for the fault hook. *)
let stream_document ~path ?(newline = false) fd format fields =
  let o =
    { fd; w = Json.writer buffer_bytes; sent = 0; hash = fnv_offset; gap = 0;
      stop = max_int }
  in
  Json.write_raw o.w "{\"format\":";
  Json.write_string o.w format;
  Json.write_raw o.w ",\"version\":";
  Json.write_number o.w (float_of_int format_version);
  o.gap <- Json.length o.w;
  Json.write_raw o.w checksum_gap;
  fields o;
  Json.write_char o.w '}';
  o.stop <- o.sent + Json.length o.w;
  if newline then Json.write_char o.w '\n';
  flush o;
  Fault.crash_before_checksum ~path;
  ignore
    (Unix.lseek fd (o.gap + String.length checksum_gap - 17) Unix.SEEK_SET);
  write_all fd (Bytes.unsafe_of_string (hex64 o.hash)) 16;
  ignore (Unix.lseek fd 0 Unix.SEEK_END)

let write_strings o a =
  Json.write_char o.w '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Json.write_char o.w ',';
      Json.write_string o.w x;
      tick o)
    a;
  Json.write_char o.w ']'

(* The bytes of [dataset_to_json], printed from the matrix. *)
let write_dataset o ds =
  let w = o.w in
  let m = Dataset.matrix ds in
  let n, d = Mat.dims m in
  Json.write_raw w "{\"name\":";
  Json.write_string w (Dataset.name ds);
  Json.write_raw w ",\"columns\":";
  write_strings o (Dataset.columns ds);
  Json.write_raw w ",\"labels\":";
  (match Dataset.labels ds with
   | None -> Json.write_raw w "null"
   | Some l -> write_strings o l);
  Json.write_raw w ",\"rows\":";
  Json.write_number w (float_of_int n);
  Json.write_raw w ",\"cols\":";
  Json.write_number w (float_of_int d);
  Json.write_raw w ",\"data\":[";
  for i = 0 to n - 1 do
    if i > 0 then Json.write_char w ',';
    Json.write_floats w m.Mat.a (i * d) d;
    tick o
  done;
  Json.write_raw w "]}"

(* The arguments [Session.create] is replayed from, as fields that
   follow others in an object; [ds] is the session's dataset, which the
   caller has read once for all the documents it prints. *)
let write_creation o ds session =
  let w = o.w in
  let seed, standardize, jitter, method_ = Session.creation_args session in
  Json.write_raw w ",\"seed\":";
  Json.write_number w (float_of_int seed);
  Json.write_raw w
    (if standardize then ",\"standardize\":true" else ",\"standardize\":false");
  Json.write_raw w ",\"jitter\":";
  Json.write_number w jitter;
  Json.write_raw w ",\"method\":";
  Json.write w (method_to_json method_);
  Json.write_raw w ",\"dataset\":";
  write_dataset o ds

(* A snapshot's fields: the creation arguments, then every event. *)
let snapshot_fields ds session o =
  write_creation o ds session;
  Json.write_raw o.w ",\"history\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Json.write_char o.w ',';
      Json.write o.w (event_to_json e);
      tick o)
    (Session.history session);
  Json.write_char o.w ']'

(* A journal header's fields: the events a sibling snapshot stands for,
   when there are any, then the creation arguments. *)
let header_fields ~base ds session o =
  if base <> 0 then begin
    Json.write_raw o.w ",\"base\":";
    Json.write_number o.w (float_of_int base)
  end;
  write_creation o ds session

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
  verify_checksum ~what j;
  version

let create_session_of_json ~what j =
  parsing what @@ fun () ->
  let ds = dataset_of_json (Json.member "dataset" j) in
  Session.create
    ~seed:(Json.to_int (Json.member "seed" j))
    ~standardize:(Json.to_bool (Json.member "standardize" j))
    ~jitter:(Json.to_float (Json.member "jitter" j))
    ~method_:(method_of_json (Json.member "method" j))
    ds

(* A snapshot's session and its format version. *)
let session_of_json j =
  let version = check_format ~what:"snapshot" ~expected:"sider-session" j in
  let session = create_session_of_json ~what:"snapshot" j in
  List.iter
    (replay_event session)
    (parsing "snapshot" (fun () -> Json.to_list (Json.member "history" j)));
  (session, version)

(* --- atomic file IO ---------------------------------------------------------- *)

(* Streams a document into [path] (truncating) and fsyncs before
   returning. *)
let write_fsync path print =
  try
    let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        print fd;
        Unix.fsync fd)
  with Unix.Unix_error (err, _, _) ->
    io_fail "Persist: write %s: %s" path (Unix.error_message err)

let rename_into tmp path =
  try Sys.rename tmp path with
  | Sys_error msg -> io_fail "Persist: rename over %s failed: %s" path msg

let snapshot_to ~path ds session fd =
  stream_document ~path fd "sider-session" (snapshot_fields ds session)

let header_to ~path ~base ds session fd =
  stream_document ~path ~newline:true fd "sider-journal"
    (header_fields ~base ds session)

(* tmp + fsync + rename: a crash at any point leaves either the old
   complete file or the new complete file, never a torn one.  The tmp
   file lives in the destination directory so the rename cannot cross a
   filesystem boundary. *)
let save path session =
  let ds = Session.dataset session in
  let tmp = path ^ ".tmp" in
  write_fsync tmp (snapshot_to ~path:tmp ds session);
  rename_into tmp path

(* --- reading stored files ------------------------------------------------------ *)

(* Every stored file is read through [next_line]: a snapshot, a journal,
   a journal's header read back, and either kind as [inspect] judges
   it.  A file is closed before its lines are parsed, so no channel's
   buffer outlives the read into a replay. *)

let cannot_read path msg = io_fail "Persist: cannot read %s: %s" path msg

let reading path f =
  match open_in_bin path with
  | exception Sys_error msg -> cannot_read path msg
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* The next line of [ic] and whether a newline ended it; [None] at the
   end of the file. *)
let next_line path ic =
  let start = pos_in ic in
  match input_line ic with
  | line -> Some (line, pos_in ic - start > String.length line)
  | exception End_of_file -> None
  | exception Sys_error msg -> cannot_read path msg

let read_lines path =
  reading path (fun ic ->
      let rec go acc =
        match next_line path ic with
        | None -> List.rev acc
        | Some line -> go (line :: acc)
      in
      go [])

let length lines =
  List.fold_left (fun n (l, nl) -> n + String.length l + Bool.to_int nl) 0 lines

(* A snapshot from its file's lines: one, unless it was edited by hand. *)
let snapshot_of path lines =
  let text =
    match lines with
    | [ (line, false) ] -> line
    | _ ->
      String.concat ""
        (List.map (fun (l, nl) -> if nl then l ^ "\n" else l) lines)
  in
  match Json.of_string text with
  | j -> session_of_json j
  | exception Json.Parse_error msg -> corrupt "snapshot %s: %s" path msg

let load path = fst (snapshot_of path (read_lines path))

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

(* Runs [print] on the journal's descriptor and fsyncs. *)
let journal_write j print =
  match j.j_fd with
  | None -> io_fail "Persist.journal %s: already closed" j.j_path
  | Some fd ->
    if Fault.journal_append_should_fail ~path:j.j_path then
      io_fail "Persist.journal %s: injected append failure" j.j_path;
    (try
       print fd;
       Unix.fsync fd
     with Unix.Unix_error (err, _, _) ->
       io_fail "Persist.journal %s: append failed: %s" j.j_path
         (Unix.error_message err))

let journal_append j event =
  let w = Json.writer 256 in
  Json.write w (event_to_json event);
  Json.write_char w '\n';
  journal_write j (fun fd -> write_all fd (Json.bytes w) (Json.length w));
  j.j_events <- j.j_events + 1

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

(* A journal's header, the first of its lines, checked as recovery
   checks it: a newline ends it, it parses, and its format, version and
   checksum hold.  Returns it and its version. *)
let parse_header path lines =
  match lines with
  | [] -> corrupt "journal %s: empty file" path
  | (_, false) :: _ -> corrupt "journal %s: truncated header" path
  | (line, true) :: _ ->
    let header =
      try Json.of_string line with
      | Json.Parse_error msg -> corrupt "journal %s: header: %s" path msg
    in
    ( header,
      check_format ~what:(Printf.sprintf "journal %s" path)
        ~expected:"sider-journal" header )

(* The dataset of the journal at [path], read back from its header line
   whenever it is called: the line it holds then, which compaction
   rewrites with the same dataset. *)
let header_dataset path () =
  let header, _ =
    parse_header path (Option.to_list (reading path (next_line path)))
  in
  parsing (Printf.sprintf "journal %s" path) (fun () ->
      dataset_of_json (Json.member "dataset" header))

(* A start that fails, the header's write-back included, leaves the
   descriptor closed. *)
let journal_start path session =
  (* Read before the file is truncated: a released session reads its
     dataset back from its journal, which may be this one. *)
  let ds = Session.dataset session in
  let fd =
    try Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 with
    | Unix.Unix_error (err, _, _) ->
      io_fail "Persist.journal %s: cannot create: %s" path
        (Unix.error_message err)
  in
  let j = { j_path = path; j_fd = Some fd; j_events = 0; j_base = 0 } in
  (try
     journal_write j (header_to ~path ~base:0 ds session);
     List.iter (journal_append j) (Session.history session)
   with e ->
     journal_close j;
     raise e);
  Session.release_dataset session (header_dataset path);
  j

let journal_events j = j.j_events

let journal_base j = j.j_base

type recovered = {
  session : Session.t;
  version : int;
  restored : int;
  dropped : int;
  sibling : (string * int) option;
}

(* Core recovery scan, over the journal's lines.  Returns what it
   restored, the number of intact event lines in the journal file, the
   byte offset of the end of the last intact record (so a reopen can
   truncate the dropped tail before appending) and the header's
   [base]. *)
let journal_scan path lines =
  let header, version = parse_header path lines in
  let base =
    match Json.member_opt "base" header with
    | None -> 0
    | Some b ->
      parsing (Printf.sprintf "journal %s" path) (fun () -> Json.to_int b)
  in
  let snap = snapshot_path path in
  let sibling =
    if not (Sys.file_exists snap) then None
    else
      let lines = read_lines snap in
      Some (length lines, fst (snapshot_of snap lines))
  in
  let session, skip =
    match sibling with
    | None ->
      if base > 0 then
        corrupt
          "journal %s: header base is %d but sibling snapshot %s is \
           missing"
          path base snap;
      ( create_session_of_json ~what:(Printf.sprintf "journal %s" path)
          header,
        0 )
    | Some (_, s) ->
      let sn = List.length (Session.history s) in
      if sn < base then
        corrupt
          "journal %s: sibling snapshot %s holds %d event(s) but the \
           journal base is %d"
          path snap sn base;
      (s, sn - base)
  in
  let applied = ref (List.length (Session.history session)) in
  let intact = ref 0 and to_skip = ref skip in
  let rec replay good_len = function
    (* An unterminated tail is the append a crash interrupted: the
       client was never acknowledged, dropping it is the contract, even
       when it parses.  So is an empty final line.  A terminated line
       must parse and replay. *)
    | (line, true) :: rest when not (line = "" && rest = []) ->
      let j =
        try Json.of_string line with
        | Json.Parse_error msg ->
          corrupt "journal %s: event %d: %s" path (!intact + 1) msg
      in
      (* Leading lines the sibling snapshot already captures are
         validated and kept on disk but not replayed — a crash between
         the compaction renames leaves the old journal next to the new
         snapshot, and replaying them would double-apply. *)
      if !to_skip > 0 then decr to_skip
      else begin
        replay_event session j;
        incr applied
      end;
      incr intact;
      replay (good_len + String.length line + 1) rest
    | dropped -> (good_len, length dropped)
  in
  let good_len, dropped = replay (length [ List.hd lines ]) (List.tl lines) in
  if !to_skip > 0 then
    corrupt
      "journal %s: sibling snapshot %s is %d event(s) ahead of the \
       journal contents"
      path snap !to_skip;
  ( { session; version; restored = !applied; dropped;
      sibling = Option.map (fun (bytes, _) -> (snap, bytes)) sibling },
    (!intact, good_len, base) )

let journal_load path =
  Sider_error.protect (fun () ->
      let r = fst (journal_scan path (read_lines path)) in
      (r.session, r.restored))

let journal_reopen path =
  Sider_error.protect (fun () ->
      let r, (lines, good_len, base) = journal_scan path (read_lines path) in
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
      Session.release_dataset r.session (header_dataset path);
      ( r.session,
        { j_path = path; j_fd = Some fd; j_events = lines; j_base = base } ))

type store = {
  kind : [ `Journal | `Snapshot ];
  bytes : int;
  recovery : (recovered, Sider_error.t) result;
}

(* The first line's format tag picks the scan [journal_load] or [load]
   runs, over the lines read once. *)
let inspect path =
  Sider_error.protect @@ fun () ->
  let lines = read_lines path in
  let tag (line, _) = Json.member_opt "format" (Json.of_string line) in
  let kind =
    match Option.bind (List.nth_opt lines 0) tag with
    | Some (Json.String "sider-journal") -> `Journal
    | _ | (exception Json.Parse_error _) -> `Snapshot
  in
  let recovery =
    Sider_error.protect (fun () ->
        match kind with
        | `Journal -> fst (journal_scan path lines)
        | `Snapshot ->
          let session, version = snapshot_of path lines in
          { session; version;
            restored = List.length (Session.history session); dropped = 0;
            sibling = None })
  in
  { kind; bytes = length lines; recovery }

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
  (* The dataset is read once, before any file is opened, and both
     documents print from it.  A released session reads it back from
     this journal's header: one that no longer reads back (a byte of it
     changed on disk) fails here and closes the handle, so the next
     append fails rather than acknowledge an event recovery would
     refuse. *)
  let ds =
    try Session.dataset session with
    | e ->
      journal_close j;
      raise e
  in
  let snap = snapshot_path path in
  Fault.crash_compaction_at ~path ~point:0;
  let snap_tmp = snap ^ ".tmp" in
  write_fsync snap_tmp (snapshot_to ~path:snap_tmp ds session);
  Fault.crash_compaction_at ~path ~point:1;
  rename_into snap_tmp snap;
  Fault.crash_compaction_at ~path ~point:2;
  let base = List.length (Session.history session) in
  let jrn_tmp = path ^ ".compact.tmp" in
  write_fsync jrn_tmp (header_to ~path:jrn_tmp ~base ds session);
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
