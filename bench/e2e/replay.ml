(* In-process replay of a session's request log through the public calls
   the service makes for each route: Json / Persist.dataset_of_json to
   decode, Session.* to apply, Persist.journal_* to journal, and the
   projection serialised the way the service answers it.

   Two uses.  Every run replays the checked sessions and compares the
   service's final projection bit for bit.  A traced run also replays a
   seed-chosen sample with spans around each call (kept in memory,
   written at the end) and, right after every replayed view and outside
   its span, times Whiten.whiten, View.of_whitened and Solver.sample on
   the same solver state to split the view's cost. *)

open Sider_data
open Sider_core
open Sider_projection
module Obs = Sider_obs.Obs
module Rng = Sider_rand.Rng
module Solver = Sider_maxent.Solver

(* --- spans ------------------------------------------------------------------- *)

type span = {
  name : string;
  trace : string;  (** the request's X-Sider-Trace-Id *)
  id : int;
  parent : int;  (** 0 for a root span *)
  start : int64;
  stop : int64;
}

type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable view_rest : float list;
      (** per replayed view: recompute_view minus its three split parts *)
}

let tracer () = { spans = []; next_id = 1; stack = []; view_rest = [] }

let span tr ~trace name f =
  match tr with
  | None -> f ()
  | Some tr ->
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> 0 in
    tr.stack <- id :: tr.stack;
    let start = Obs.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        tr.stack <- List.tl tr.stack;
        tr.spans <- { name; trace; id; parent; start; stop = Obs.now_ns () } :: tr.spans)
      f

let dur_s sp = Int64.to_float (Int64.sub sp.stop sp.start) /. 1e9

(* Self time: the span minus the part its children cover. *)
let self_times tr =
  let child = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent > 0 then
        Hashtbl.replace child sp.parent
          (dur_s sp +. Option.value ~default:0.0 (Hashtbl.find_opt child sp.parent)))
    tr.spans;
  List.map
    (fun sp -> (sp, dur_s sp -. Option.value ~default:0.0 (Hashtbl.find_opt child sp.id)))
    tr.spans

let write_spans tr path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun sp ->
          Printf.fprintf oc
            "{\"name\":\"%s\",\"trace\":\"%s\",\"span\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            sp.name (Obs.json_escape sp.trace) sp.id sp.parent sp.start sp.stop)
        (List.rev tr.spans))

(* --- the service's answers, rebuilt ------------------------------------------ *)

(* The projection response, field for field as the service writes it. *)
let projection_json session points =
  let xl, yl = Session.axis_labels session in
  let sx, sy = Session.view_scores session in
  let point (p : Session.point) =
    let bx, by = p.background in
    Json.Obj
      ([ ("i", Json.Number (float_of_int p.index)); ("x", Json.Number p.x);
         ("y", Json.Number p.y); ("bx", Json.Number bx); ("by", Json.Number by) ]
       @ match p.label with Some l -> [ ("label", Json.String l) ] | None -> [])
  in
  Json.Obj
    [ ("method", Json.String (View.method_name (Session.method_ session)));
      ("axis_labels", Json.List [ Json.String xl; Json.String yl ]);
      ("scores", Json.List [ Json.Number sx; Json.Number sy ]);
      ("points", Json.List (Array.to_list (Array.map point points))) ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Compare a projection body fetched from the service with the replayed
   session: every coordinate, background coordinate and score must have
   the same bits. *)
let check_projection session body =
  let member k j = Json.member k j in
  match Json.of_string body with
  | exception Json.Parse_error m -> Error ("unparseable projection: " ^ m)
  | j -> (
    try
      let xl, yl = Session.axis_labels session in
      let sx, sy = Session.view_scores session in
      let pts = Session.scatter session in
      let got = Array.of_list (Json.to_list (member "points" j)) in
      let scores = Json.to_floats (member "scores" j) in
      let labels = List.map Json.to_str (Json.to_list (member "axis_labels" j)) in
      if Json.to_str (member "method" j) <> View.method_name (Session.method_ session)
      then Error "method differs"
      else if labels <> [ xl; yl ] then Error "axis labels differ"
      else if not (Array.length scores = 2 && same_bits scores.(0) sx && same_bits scores.(1) sy)
      then Error "scores differ"
      else if Array.length got <> Array.length pts then Error "point count differs"
      else (
        let bad = ref None in
        Array.iteri
          (fun i (p : Session.point) ->
            let g k = Json.to_float (member k got.(i)) in
            let bx, by = p.background in
            if
              !bad = None
              && not
                   (Json.to_int (member "i" got.(i)) = p.index
                    && same_bits (g "x") p.x && same_bits (g "y") p.y
                    && same_bits (g "bx") bx && same_bits (g "by") by)
            then bad := Some (Printf.sprintf "point %d differs" i))
          pts;
        match !bad with Some m -> Error m | None -> Ok ())
    with Not_found | Invalid_argument _ -> Error "projection has an unexpected shape")

(* --- replay -------------------------------------------------------------------- *)

let str_or j k d = match Json.member_opt k j with Some v -> Json.to_str v | None -> d

let method_of = function
  | "ica" -> View.Ica
  | "pca" -> View.Pca
  | m -> failwith ("replay: unknown method " ^ m)

(* The event the service journals for a constraint body; default tags are
   numbered exactly as the service numbers them. *)
let constraint_event session j =
  let tag prefix =
    str_or j "tag"
      (Printf.sprintf "%s%d" prefix (List.length (Session.constraint_tags session) + 1))
  in
  let rows () = Json.to_ints (Json.member "rows" j) in
  match str_or j "type" "cluster" with
  | "cluster" -> Session.Added_cluster { rows = rows (); tag = tag "cluster" }
  | "two_d" -> Session.Added_two_d { rows = rows (); tag = tag "2d" }
  | "margin" -> Session.Added_margin
  | "one_cluster" -> Session.Added_one_cluster
  | t -> failwith ("replay: unknown constraint type " ^ t)

let apply_constraint session = function
  | Session.Added_cluster { rows; tag } -> Session.add_cluster_constraint ~tag session rows
  | Session.Added_two_d { rows; tag } -> Session.add_two_d_constraint ~tag session rows
  | Session.Added_margin -> Session.add_margin_constraint session
  | Session.Added_one_cluster -> Session.add_one_cluster_constraint session
  | Session.Updated _ | Session.Viewed _ -> ()

(* Requests the service applied: the expected status, or a failed update
   (422), which the session records and rolls back. *)
let applied (e : Drive.entry) =
  Drive.ok e || (e.route = Drive.Update && e.status = 422)

(* A session being replayed: its in-process twin, the journal it is
   written to (with [journal_dir]: there, as the service journals it,
   compacted past [compact_events] lines and reloaded wherever the live
   run found the session evicted), and how many of the session's log
   entries it has applied. *)
type replayer = {
  tr : tracer option;
  jpath : string option;
  compact_events : int;
  mutable live : Session.t option;
  mutable journal : Persist.journal option;
  mutable seen : int;
}

let replayer ?tr ?journal_dir ~compact_events (s : Drive.session) =
  { tr; compact_events; live = None; journal = None; seen = 0;
    jpath = Option.map (fun d -> Filename.concat d (Printf.sprintf "r%d.journal" s.sidx)) journal_dir }

let replay_entry r (e : Drive.entry) =
  let span name f = span r.tr ~trace:e.trace name f in
  let get () = match r.live with Some x -> x | None -> failwith "replay: no session" in
  let append ev =
    Option.iter (fun j -> span "Persist.journal_append" (fun () -> Persist.journal_append j ev)) r.journal
  in
  let compact () =
    match (r.journal, r.live) with
    | Some j, Some x when r.compact_events > 0 && Persist.journal_events j >= r.compact_events ->
      span "Persist.journal_compact" (fun () -> Persist.journal_compact j x)
    | _ -> ()
  in
  let parse () = span "Json.parse" (fun () -> Json.of_string e.body) in
  let respond_projection x =
    let pts = span "Session.scatter" (fun () -> Session.scatter x) in
    ignore (span "Json.serialise" (fun () -> Json.to_string (projection_json x pts)))
  in
  (match (e.revisit, r.journal, r.jpath) with
   | true, Some j, Some p ->
     Persist.journal_close j;
     span "Persist.journal_load" (fun () ->
         match Persist.journal_reopen p with
         | Ok (x, j) -> r.live <- Some x; r.journal <- Some j
         | Error err -> failwith (Sider_robust.Sider_error.to_string err))
   | _ -> ());
  match e.route with
  | Drive.Create ->
    let ds, seed, standardize, jitter, m =
      span "Json.parse" (fun () ->
          let j = Json.of_string e.body in
          let opt k conv d = match Json.member_opt k j with Some v -> conv v | None -> d in
          ( Persist.dataset_of_json (Json.member "dataset" j),
            opt "seed" Json.to_int 42, opt "standardize" Json.to_bool true,
            opt "jitter" Json.to_float 1e-3, method_of (str_or j "method" "pca") ))
    in
    let x =
      span "Session.create" (fun () -> Session.create ~seed ~standardize ~jitter ~method_:m ds)
    in
    r.live <- Some x;
    Option.iter
      (fun p -> r.journal <- Some (span "Persist.journal_start" (fun () -> Persist.journal_start p x)))
      r.jpath;
    None
  | Drive.Constrain ->
    let j = parse () in
    let x = get () in
    let ev = constraint_event x j in
    append ev;
    span "Session.constrain" (fun () -> apply_constraint x ev);
    compact ();
    None
  | Drive.Update ->
    let j = parse () in
    let x = get () in
    let time_cutoff =
      match Json.member_opt "time_cutoff" j with Some v -> Json.to_float v | None -> 10.0
    in
    let max_sweeps = Option.map Json.to_int (Json.member_opt "max_sweeps" j) in
    append (Session.Updated { time_cutoff; max_sweeps });
    span "Session.update_background" (fun () ->
        ignore (Session.update_background ~time_cutoff ?max_sweeps x));
    compact ();
    None
  | Drive.View ->
    let j = parse () in
    let x = get () in
    let m = method_of (str_or j "method" "pca") in
    append (Session.Viewed m);
    let prev_w = (Session.current_view x).View.unmixing in
    let t0 = Obs.now_ns () in
    span "Session.recompute_view" (fun () -> ignore (Session.recompute_view ~method_:m x));
    let view_s = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
    respond_projection x;
    compact ();
    Some (x, m, prev_w, view_s)
  | Drive.Projection -> respond_projection (get ()); None
  | Drive.Delete | Drive.Other -> None

(* Split a replayed view into whitening, the projection search and the
   background sample, on the solver state the view just used.  Fresh
   generators keep the session's own stream untouched. *)
let split r trace (x, m, prev_w, view_s) =
  match r.tr with
  | None -> ()
  | Some t ->
    let timed name f =
      let t0 = Obs.now_ns () in
      let v = span r.tr ~trace name f in
      (v, Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9)
    in
    span r.tr ~trace "replay.split" (fun () ->
        let solver = Session.solver x in
        let y, w_s = timed "Whiten.whiten" (fun () -> Whiten.whiten solver) in
        let name = match m with View.Ica -> "View.ica" | View.Pca -> "View.pca" in
        let _, v_s =
          timed name (fun () -> View.of_whitened ~rng:(Rng.create 1) ?ica_w0:prev_w ~method_:m y)
        in
        let _, s_s = timed "Solver.sample" (fun () -> Solver.sample solver (Rng.create 2)) in
        t.view_rest <- (view_s -. w_s -. v_s -. s_s) :: t.view_rest)

(* Apply the entries of [s]'s log that [r] has not applied yet. *)
let catch_up r (s : Drive.session) =
  let fresh = List.length s.log - r.seen in
  List.filteri (fun i _ -> i < fresh) s.log
  |> List.rev
  |> List.iter (fun (e : Drive.entry) ->
      if applied e then
        match span r.tr ~trace:e.trace "replay.request" (fun () -> replay_entry r e) with
        | Some v -> split r e.trace v
        | None -> ());
  r.seen <- r.seen + fresh

(* The replayed session, its journal closed. *)
let finish r =
  Option.iter Persist.journal_close r.journal;
  r.journal <- None;
  r.live

(* Replay [s]'s whole log and return the final session. *)
let session ?tr ?journal_dir ~compact_events s =
  let r = replayer ?tr ?journal_dir ~compact_events s in
  catch_up r s;
  finish r
