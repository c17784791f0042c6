(* The load generator: one process, one or two keep-alive connections
   (one thread each), every request logged with its route, body, status,
   due / send / receive times and the trace id it carried.

   Closed loops (ica_explore, solve, projection_reads) send a
   connection's next request when the previous answer arrives; each
   session stays on one connection, so its log is the order the service
   applied it.  The open loop (service_churn) starts sessions on a
   seeded Poisson schedule whatever the service does, and times each
   session's first request from when it was due, so a stall also counts
   against the sessions queued behind it. *)

open Sider_data
module Http = Sider_serve.Http
module Persona = Sider_serve.Persona
module Rng = Sider_rand.Rng
module Obs = Sider_obs.Obs

type route = Create | Constrain | Update | View | Projection | Delete | Other

let route_of meth path =
  match (meth, List.filter (( <> ) "") (String.split_on_char '/' path)) with
  | "POST", [ "sessions" ] -> Create
  | "POST", [ "sessions"; _; "constraints" ] -> Constrain
  | "POST", [ "sessions"; _; "update" ] -> Update
  | "POST", [ "sessions"; _; "view" ] -> View
  | "GET", [ "sessions"; _; "projection" ] -> Projection
  | "DELETE", [ "sessions"; _ ] -> Delete
  | _ -> Other

let expected_status = function Create -> 201 | Delete -> 204 | _ -> 200

type report = {
  converged : bool;
  sweeps : int;
  warm_sweeps : int;
  cold_sweeps : int;
  degradations : int;
}

type entry = {
  route : route;
  body : string;
  trace : string;
  due : int64;  (** when the request was due; its latency runs from here *)
  sent : int64;
  recv : int64;
  status : int;  (** 0 on a transport error *)
  report : report option;  (** parsed update response *)
  revisit : bool;  (** first request on a session evicted since its last *)
  measured : bool;
}

let ok e = e.status = expected_status e.route

type session = {
  sidx : int;  (** creation order within the run *)
  mutable id : string;  (** the service's id, once created *)
  mutable log : entry list;  (** newest first *)
}

let new_session sidx = { sidx; id = ""; log = [] }

let session_log s = List.rev s.log

type conn = { cid : int; client : Http.client; prefix : string; mutable seq : int }

let measuring = Atomic.make false

let parse_report body =
  match Json.of_string body with
  | j ->
    let int k = Json.to_int (Json.member k j) in
    Some
      { converged = Json.to_bool (Json.member "converged" j);
        sweeps = int "sweeps";
        warm_sweeps = int "warm_sweeps";
        cold_sweeps = int "cold_sweeps";
        degradations = List.length (Json.to_list (Json.member "degradations" j)) }
  | exception (Json.Parse_error _ | Not_found | Invalid_argument _) -> None

let call conn s ?due ?(revisit = false) ?body ~meth path =
  conn.seq <- conn.seq + 1;
  let trace = Printf.sprintf "%s-%d-%d" conn.prefix conn.cid conn.seq in
  let route = route_of meth path in
  let sent = Obs.now_ns () in
  let res =
    Http.client_request ~headers:[ (Http.trace_response_header, trace) ] ?body
      conn.client ~meth path
  in
  let recv = Obs.now_ns () in
  let status, resp =
    match res with
    | Ok r -> (r.Http.status, r.Http.r_body)
    | Error _ -> Http.client_close conn.client; (0, "")
  in
  if route = Create && status = 201 then
    s.id <- (try Json.to_str (Json.member "id" (Json.of_string resp)) with _ -> "");
  let body = Option.value body ~default:"" in
  s.log <-
    { route; body; trace; due = Option.value due ~default:sent; sent; recv; status;
      report = (if route = Update && status = 200 then parse_report resp else None);
      revisit; measured = Atomic.get measuring }
    :: s.log;
  (status, resp)

let spath s rest = "/sessions/" ^ s.id ^ rest

(* Run [f conn] on each of the workload's connections, one thread each;
   the clients are closed when all threads have returned. *)
let on_connections (w : Plan.t) ~port ~prefix f =
  let conns =
    List.init w.connections (fun cid ->
        { cid; client = Http.client ~timeout_s:180.0 ~port (); prefix; seq = 0 })
  in
  let errors = ref [] and m = Mutex.create () in
  let run c =
    try f c
    with e -> Mutex.protect m (fun () -> errors := Printexc.to_string e :: !errors)
  in
  List.map (Thread.create run) conns |> List.iter Thread.join;
  List.iter (fun c -> Http.client_close c.client) conns;
  match !errors with [] -> () | e :: _ -> failwith ("load generator: " ^ e)

(* A shared, mutex-guarded counter handing out session numbers. *)
let counter () =
  let n = ref 0 and m = Mutex.create () in
  fun () -> Mutex.protect m (fun () -> let i = !n in incr n; i)

let collect () =
  let all = ref [] and m = Mutex.create () in
  ((fun s -> Mutex.protect m (fun () -> all := s :: !all)),
   fun () -> List.sort (fun a b -> compare a.sidx b.sidx) !all)

(* --- session scripts ---------------------------------------------------- *)

(* One round: a constraint, the update, then the next projection. *)
let round (w : Plan.t) conn s ~live cbody =
  let step ?body ~meth path =
    if live () then ignore (call conn s ?body ~meth path)
  in
  step ~body:cbody ~meth:"POST" (spath s "/constraints");
  step ~body:Plan.update_body ~meth:"POST" (spath s "/update");
  step ~body:(Plan.view_body w) ~meth:"POST" (spath s "/view")

(* A compute session: create, a margin round, then one round per
   ground-truth cluster, stopping wherever [live] turns false.  A finished
   analyst deletes the session, so the service's memory holds the
   sessions in use rather than every session of the run; the checked
   sessions stay for the final comparison.  [mirror] runs after the
   create and after each round (the traced run's in-process replay). *)
let compute_session (w : Plan.t) conn s (ds : Plan.dataset) ~session_seed ~live ~mirror =
  if live () then (
    let st, _ =
      call conn s ~body:(Plan.create_body w ds ~session_seed) ~meth:"POST"
        "/sessions"
    in
    mirror s;
    if st = 201 then (
      round w conn s ~live Plan.margin_body;
      mirror s;
      for c = 0 to w.cluster_rounds - 1 do
        round w conn s ~live ds.classes.(c);
        mirror s
      done;
      if live () && s.sidx >= w.checked then ignore (call conn s ~meth:"DELETE" (spath s ""))))

(* The untimed warm-up of the set-up phase: on each connection, a
   session's create and first round, then its deletion. *)
let warm_up (w : Plan.t) ~port (pool : Plan.dataset array) =
  on_connections w ~port ~prefix:"warmup" (fun conn ->
      let s = new_session (-1) in
      let live () = true in
      let ds = pool.(conn.cid mod Array.length pool) in
      let st, _ =
        call conn s ~body:(Plan.create_body w ds ~session_seed:conn.cid)
          ~meth:"POST" "/sessions"
      in
      if st <> 201 then failwith "warm-up create failed";
      (match w.kind with
       | Plan.Churn ->
         ignore (call conn s ~body:Plan.margin_body ~meth:"POST" (spath s "/constraints"));
         ignore (call conn s ~body:Plan.update_body ~meth:"POST" (spath s "/update"));
         ignore (call conn s ~meth:"GET" (spath s "/projection"))
       | Plan.Compute | Plan.Reads -> round w conn s ~live Plan.margin_body);
      let st, _ = call conn s ~meth:"DELETE" (spath s "") in
      if st <> 204 || not (List.for_all ok s.log) then failwith "warm-up failed")

let session_seed ~seed i = (seed * 1000) + i

(* projection_reads set-up: [preload] sessions, each created and margin
   solved (one untimed round). *)
let preload (w : Plan.t) ~port ~seed (pool : Plan.dataset array) =
  let next = counter () in
  let add, sessions = collect () in
  on_connections w ~port ~prefix:"preload" (fun conn ->
      let rec go () =
        let i = next () in
        if i < w.preload then (
          let s = new_session i in
          add s;
          let ds = pool.(i mod Array.length pool) in
          let st, _ =
            call conn s ~body:(Plan.create_body w ds ~session_seed:(session_seed ~seed i))
              ~meth:"POST" "/sessions"
          in
          if st <> 201 then failwith "preload create failed";
          round w conn s ~live:(fun () -> true) Plan.margin_body;
          go ())
      in
      go ());
  sessions ()

(* --- measured phases -------------------------------------------------------- *)

type outcome = {
  sessions : session list;
  start_ns : int64;
  end_ns : int64;
  dropped : int;  (** open-loop arrivals never started (overload) *)
}

let finish ~start sessions dropped =
  let end_ns =
    List.fold_left
      (fun acc s ->
        List.fold_left (fun acc e -> if e.measured then max acc e.recv else acc) acc s.log)
      start sessions
  in
  { sessions; start_ns = start; end_ns; dropped }

(* A closed loop does a fixed amount of work, [Plan.work], and gives up
   on the rest once it has run twice as long as planned. *)
let live_until ~seconds =
  let stop = Int64.add (Obs.now_ns ()) (Int64.of_float (Plan.max_stretch *. seconds *. 1e9)) in
  fun () -> Obs.now_ns () < stop

let closed_compute (w : Plan.t) ~port ~seed ~seconds ~mirror (pool : Plan.dataset array) =
  let total = Plan.work w ~seconds in
  let next = counter () in
  let add, sessions = collect () in
  let start = Obs.now_ns () in
  let live = live_until ~seconds in
  on_connections w ~port ~prefix:w.name (fun conn ->
      let rec go () =
        let i = next () in
        if i < total && live () then (
          let s = new_session i in
          add s;
          compute_session w conn s pool.(i mod Array.length pool)
            ~session_seed:(session_seed ~seed i) ~live ~mirror;
          go ())
      in
      go ());
  finish ~start (sessions ()) 0

(* Each connection owns every [connections]-th preloaded session and runs
   its share of the operations in a seeded order: projection reads and,
   [write_share] of them, write rounds marking the session's next
   unmarked class, spread evenly over its sessions.  Each write adds
   state the service keeps, so the counts are fixed rather than drawn
   per operation: a run's work and memory are then the same from seed to
   seed.  [mirror] runs after each operation. *)
let closed_reads (w : Plan.t) ~port ~seed ~seconds ~mirror (pool : Plan.dataset array)
    (preloaded : session list) =
  let total = Plan.work w ~seconds in
  let start = Obs.now_ns () in
  let live = live_until ~seconds in
  on_connections w ~port ~prefix:w.name (fun conn ->
      let own =
        Array.of_list (List.filter (fun s -> s.sidx mod w.connections = conn.cid) preloaded)
      in
      let m = Array.length own in
      let ops = total * m / List.length preloaded in
      let writes = min (m * w.k) (int_of_float (Float.round (float_of_int ops *. w.write_share))) in
      (* (is a write, session) *)
      let plan = Array.init ops (fun j -> (j < writes, j mod m)) in
      Plan.shuffle (Rng.create ((seed * 31) + conn.cid)) plan;
      let marked = Array.make m 0 in
      Array.iter
        (fun (write, u) ->
          if live () then (
            let s = own.(u) in
            if write then (
              let ds = pool.(s.sidx mod Array.length pool) in
              round w conn s ~live ds.classes.(marked.(u));
              marked.(u) <- marked.(u) + 1)
            else ignore (call conn s ~meth:"GET" (spath s "/projection"));
            mirror s))
        plan);
  finish ~start preloaded 0

(* service_churn.  Arrivals are a seeded Poisson process over the
   measured window.  A revisit returns to a session whose own schedule
   slot is at least [revisit_age_s] old — long past the service's idle
   TTL, so it has been evicted and the visit rehydrates it — and that no
   other visit touched within [revisit_gap_s], so two visits never
   overlap and a session's log stays in the order the service applied
   it.  Built before set-up: it is input, not work of the service.

   The numbers of arrivals and of revisits are fixed, not drawn: a
   Poisson process given its count is that many uniform times, sorted,
   and exactly [revisit_share] of the arrivals (drawn from those late
   enough to find an evicted session) revisit.  A drawn count would make
   the work, and the service's heap, vary from seed to seed. *)
type arrival = { at_s : float; target : int option (* revisit of arrival i *) }

let revisit_age_s = 2.0
let revisit_gap_s = 1.0

let schedule (w : Plan.t) ~seed ~seconds =
  let rng = Rng.create ((seed * 104729) + 17) in
  let n = max 1 (int_of_float (Float.round (w.sessions_per_s *. seconds))) in
  let times = Array.init n (fun _ -> Rng.float rng *. seconds) in
  Array.sort Float.compare times;
  let revisits = Array.make n false in
  let late = Array.of_list (List.filter (fun i -> times.(i) >= times.(0) +. revisit_age_s) (List.init n Fun.id)) in
  Plan.shuffle rng late;
  Array.iteri
    (fun r i -> if r < int_of_float (Float.round (w.revisit_share *. float_of_int n)) then revisits.(i) <- true)
    late;
  (* Fresh arrivals in time order: (arrival, its time, its latest visit). *)
  let fresh = Array.make n (0, 0.0, 0.0) and n_fresh = ref 0 in
  let old_enough = ref 0 in
  Array.mapi
    (fun n t ->
      let at j = let _, a, _ = fresh.(j) in a in
      while !old_enough < !n_fresh && at !old_enough <= t -. revisit_age_s do
        incr old_enough
      done;
      (* A session visited too recently is passed over for another. *)
      let rec pick tries =
        if tries = 0 || !old_enough = 0 then None
        else
          let j = Rng.int rng !old_enough in
          let i, a, last = fresh.(j) in
          if last <= t -. revisit_gap_s then (
            fresh.(j) <- (i, a, t);
            Some i)
          else pick (tries - 1)
      in
      let target = if revisits.(n) then pick 8 else None in
      if target = None then (
        fresh.(!n_fresh) <- (n, t, neg_infinity);
        incr n_fresh);
      { at_s = t; target })
    times

(* Give up on the rest of the schedule once the generator runs this far
   behind: the service is overloaded and the run has already failed. *)
let max_lag_s = 10.0

(* [k] distinct rows of [n], seeded. *)
let sample_rows rng ~n ~k =
  let rows = Array.init n Fun.id in
  Plan.shuffle rng rows;
  Array.sub rows 0 k

type slot = Pending | Dropped | Started of session

(* The analysts of the churn: every persona but the outlier hunter, whose
   ICA views would make compute, not the service around it, the cost. *)
let churn_personas = [| Persona.Basic; Persona.Cluster_splitter; Persona.Adversarial |]

(* A persona's update keeps its sweep limit, but its clock limit (0.5 s,
   0.05 s for the adversarial analyst) becomes the compute workloads'
   60 s.  A solve stopped by the clock would depend on how busy the
   machine was, both when the service answered and when it replays the
   journal of an evicted session, and the replayed final projections
   would no longer have to match. *)
let sweep_limited body =
  match Json.member_opt "max_sweeps" (Json.of_string body) with
  | Some v -> Plan.update_body_with ~max_sweeps:(Json.to_int v)
  | None -> Plan.update_body

let open_churn (w : Plan.t) ~port ~seed (pool : Plan.dataset array) arrivals =
  let n = Array.length arrivals in
  let slots = Array.make n Pending and busy = Array.make n false in
  let m = Mutex.create () in
  let next = counter () in
  let dropped = Atomic.make 0 in
  let drop i = Mutex.protect m (fun () -> slots.(i) <- Dropped); Atomic.incr dropped in
  let release i = Mutex.protect m (fun () -> busy.(i) <- false) in
  (* Wait for arrival [j]'s session to be free; [None] if it never ran. *)
  let rec claim j =
    match
      Mutex.protect m (fun () ->
          match slots.(j) with
          | Started s when not busy.(j) -> busy.(j) <- true; `Got s
          | Dropped -> `Gone
          | Started _ | Pending -> `Wait)
    with
    | `Got s -> Some s
    | `Gone -> None
    | `Wait -> Thread.delay 0.001; claim j
  in
  let start = Obs.now_ns () in
  let due_of i = Int64.add start (Int64.of_float (arrivals.(i).at_s *. 1e9)) in
  let fresh conn i ~due =
    let s = new_session i in
    Mutex.protect m (fun () -> slots.(i) <- Started s; busy.(i) <- true);
    let ds = pool.(i mod Array.length pool) in
    let st, _ =
      call conn s ~due
        ~body:(Plan.create_body w ds ~session_seed:(session_seed ~seed i))
        ~meth:"POST" "/sessions"
    in
    if st = 201 then (
      let rng = Rng.create ((seed * 1_000_003) + i) in
      let api =
        { Persona.call =
            (fun ?body ~meth path ->
              let body = if route_of meth path = Update then Option.map sweep_limited body else body in
              match call conn s ?body ~meth path with 0, _ -> None | r -> Some r) }
      in
      (* In turn rather than drawn, so each persona drives a fixed share. *)
      let kind = churn_personas.(i mod Array.length churn_personas) in
      ignore (Persona.drive ~rng ~rows:w.n kind api ~id:s.id));
    release i
  in
  (* A revisit: the evicted session's projection, then a cluster round
     whose update has the basic persona's sweep limit, 20.  With 500, a
     few of these solves ran to 200 sweeps, and which few depends on the
     seed. *)
  let revisit_update = Plan.update_body_with ~max_sweeps:20 in
  let revisit conn i j ~due =
    match claim j with
    | None -> drop i
    | Some s ->
      if s.id <> "" then (
        let rows = sample_rows (Rng.create ((seed * 1_000_033) + i)) ~n:w.n ~k:(w.n / 4) in
        ignore (call conn s ~due ~revisit:true ~meth:"GET" (spath s "/projection"));
        ignore (call conn s ~body:(Plan.cluster_body rows) ~meth:"POST" (spath s "/constraints"));
        ignore (call conn s ~body:revisit_update ~meth:"POST" (spath s "/update"));
        ignore (call conn s ~meth:"GET" (spath s "/projection")));
      release j
  in
  on_connections w ~port ~prefix:w.name (fun conn ->
      let rec go () =
        let i = next () in
        if i < n then (
          let due = due_of i in
          let wait = Int64.to_float (Int64.sub due (Obs.now_ns ())) /. 1e9 in
          if wait > 0.0 then Thread.delay wait;
          if Int64.to_float (Int64.sub (Obs.now_ns ()) due) /. 1e9 > max_lag_s then drop i
          else (
            match arrivals.(i).target with
            | None -> fresh conn i ~due
            | Some j -> revisit conn i j ~due);
          go ())
      in
      go ());
  let sessions =
    Array.to_list slots |> List.filter_map (function Started s -> Some s | _ -> None)
  in
  finish ~start sessions (Atomic.get dropped)
