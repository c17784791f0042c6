(* The four workloads: their shapes, the service flags they run under and
   the request bodies they send.  Every input is derived from the run's
   seed; the service only ever sees the generated requests.

   The datasets themselves come from a fixed population per workload;
   the seed draws the order in which sessions visit it, the session
   seeds (jitter, FastICA starts), the analyst personas' choices and the
   arrival schedule.  How long a MaxEnt solve or a FastICA fit takes depends
   strongly on the data's cluster geometry, so redrawing the data per
   seed would make two runs of the same code do different amounts of
   work; a fixed population keeps the work per round comparable across
   seeds while the seed still varies everything the analyst does.

   - ica_explore: FastICA dominates each round (the PCA workloads never
     reach it), so ICA kernel and view changes show here.
   - solve: a wide PCA session whose rounds are almost all MaxEnt solve,
     so solver changes (warm start, Woodbury, Cholesky cache) show here
     and ICA never runs.
   - service_churn: tiny sessions arriving on an open-loop schedule;
     compute is negligible, so HTTP, queueing, the registry and the
     journal (including rehydration of evicted sessions) dominate.
   - projection_reads: mostly large projection reads beside a few write
     rounds, so moving work between the read and the write path shows as
     a gain on one and a cost on the other. *)

open Sider_data
open Sider_core

type kind = Compute | Churn | Reads

type t = {
  name : string;
  kind : kind;
  connections : int;  (** keep-alive connections, one client thread each *)
  n : int;
  d : int;
  k : int;
  method_ : string;  (** projection method of every view *)
  cluster_rounds : int;  (** ground-truth cluster rounds per session *)
  datasets : int;  (** size of the dataset population *)
  service_args : string list;
  checked : int;  (** sessions whose final projection is checked *)
  preload : int;  (** sessions created during set-up (reads) *)
  write_share : float;  (** share of operations that are write rounds *)
  sessions_per_s : float;  (** open-loop arrival rate (churn) *)
  revisit_share : float;
  work_per_s : float;
      (** closed loops: sessions (compute) or operations (reads) per second
          of [--seconds] *)
}

(* Every update asks for a fixed amount of work and no solve may stop on
   its time cutoff, or a faster solver would simply run more sweeps. *)
let update_body_with ~max_sweeps =
  Printf.sprintf {|{"time_cutoff":60,"max_sweeps":%d}|} max_sweeps

let update_body = update_body_with ~max_sweeps:500

let compute_args = [ "--deadline"; "120" ]

(* A closed loop over one connection has one request in flight, so one
   worker serves it as fast as the default four.  With four, which worker
   thread took each request, and so which malloc arena held its memory,
   changed from run to run, and the service's peak memory with it: 5-6%
   between runs of one seed on solve_d24, against under 1% with one
   worker. *)
let base =
  { name = ""; kind = Compute; connections = 1; n = 0; d = 0; k = 0; method_ = "pca";
    cluster_rounds = 0; datasets = 16; service_args = compute_args @ [ "--workers"; "1" ];
    checked = 2; preload = 0;
    write_share = 0.0; sessions_per_s = 0.0; revisit_share = 0.0; work_per_s = 0.0 }

(* A closed loop does a fixed amount of work, [--seconds] × [work_per_s]:
   what a 2-vCPU virtual machine got through in half to all of that time,
   and at 20 s a whole number of passes over the population of 16
   datasets.  The work, and the service's heap along it, is then the
   same whatever the machine's speed during the run.  The loop gives up
   on the rest of it once it has run [max_stretch] × [--seconds], which
   bounds a run's length on a slow machine. *)
let max_stretch = 1.5

let all =
  [ { base with name = "ica_explore"; n = 512; d = 12; k = 6;
                method_ = "ica"; cluster_rounds = 6; work_per_s = 1.6 };
    { base with name = "solve_d24"; n = 512; d = 24; k = 6;
                cluster_rounds = 6; work_per_s = 1.6 };
    { base with name = "service_churn"; kind = Churn; connections = 2; n = 48; d = 4;
                checked = 16;
                service_args =
                  compute_args
                  @ [ "--ttl"; "0.5"; "--compact-threshold"; "8";
                      "--max-sessions"; "256" ];
                sessions_per_s = 120.0; revisit_share = 0.2 };
    (* Enough preloaded sessions that writes never run out of unmarked
       classes within a run: 8 per session, 160 in all, against 100 write
       rounds, 5 per session. *)
    { base with name = "projection_reads"; kind = Reads; n = 1024; d = 16;
                k = 8; preload = 20; write_share = 0.05; work_per_s = 100.0 } ]

let find name = List.find_opt (fun w -> w.name = name) all

let work w ~seconds = max 1 (int_of_float (Float.round (seconds *. w.work_per_s)))

(* A small fraction of the work (quarter-size data, two datasets, a
   quarter of the arrival rate, and a 1 s window), same code paths. *)
let smoke w =
  { w with n = max 48 (w.n / 4); datasets = 2;
           preload = (if w.preload > 0 then 4 else 0);
           sessions_per_s = w.sessions_per_s /. 4.0;
           checked = min w.checked 4 }

(* --- inputs ----------------------------------------------------------- *)

type dataset = {
  json : string;  (** the dataset in the snapshot schema *)
  classes : string array;  (** cluster-constraint bodies, one per class *)
}

let cluster_body rows =
  Json.to_string
    (Json.Obj [ ("type", Json.String "cluster"); ("rows", Json.ints rows) ])

let margin_body = {|{"type":"margin"}|}

let view_body w = Printf.sprintf {|{"method":"%s"}|} w.method_

let make_dataset w ~seed =
  let ds =
    match w.kind with
    | Churn -> Synth.gaussian ~seed ~n:w.n ~d:w.d ()
    | Compute | Reads -> Synth.clustered ~seed ~n:w.n ~d:w.d ~k:w.k ()
  in
  let classes =
    match w.kind with
    | Churn -> [||]
    | Compute | Reads ->
      Array.init w.k (fun c ->
          cluster_body (Dataset.class_indices ds (Printf.sprintf "c%d" c)))
  in
  { json = Json.to_string (Persist.dataset_to_json ds); classes }

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Sider_rand.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let population w = Array.init w.datasets (fun i -> make_dataset w ~seed:(7919 + i))

(* The dataset of each of a run's [sessions] sessions: the population,
   each dataset serving as many sessions as any other (give or take one,
   the same datasets taking the extra one whatever the seed), in the
   order the run's seed draws.  The work of a run, and the service's heap
   along it, is then the same from seed to seed. *)
let datasets w ~seed ~sessions population =
  let order = Array.init (max 1 sessions) (fun i -> population.(i mod w.datasets)) in
  shuffle (Sider_rand.Rng.create ((seed * 7919) + 1)) order;
  order

let create_body w (ds : dataset) ~session_seed =
  Printf.sprintf {|{"dataset":%s,"method":"%s","seed":%d}|} ds.json w.method_
    session_seed
