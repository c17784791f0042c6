module Obs = Sider_obs.Obs

(* ------------------------------------------------------------------ *)
(* Chunking policy.

   Chunk boundaries are a pure function of [n] and the explicit [?chunk]
   argument — never of the pool size — which is what makes the reduce
   tree (and therefore every floating-point result) independent of the
   domain count.  The default targets at most [default_chunks] chunks so
   scheduling overhead stays bounded for large [n] while small [n] still
   splits enough to occupy a handful of domains. *)

let default_chunks = 64

let chunk_size ~chunk n =
  match chunk with
  | Some c when c >= 1 -> c
  | _ -> (n + default_chunks - 1) / default_chunks |> Stdlib.max 1

let n_chunks ~csize n = (n + csize - 1) / csize

(* ------------------------------------------------------------------ *)
(* The pool.

   One persistent set of worker domains; jobs are published under a
   mutex with a generation counter, chunks are claimed through a shared
   atomic cursor (dynamic scheduling — affects only which domain runs a
   chunk, never the result), and completion is detected by an atomic
   count of finished chunks.  The submitting domain participates in the
   chunk loop, so a pool of size [k] spawns [k - 1] workers. *)

type job = {
  run_chunk : int -> unit;
  chunks : int;
  next : int Atomic.t;       (* next chunk to claim *)
  remaining : int Atomic.t;  (* chunks not yet completed *)
  mutable failed : exn option;  (* first failure, kept under [m] *)
  (* Telemetry, maintained only when an Obs sink/recorder is active.
     All of it is timing-side: chunk *results* never depend on it. *)
  obs : bool;
  job_gen : int;                  (* generation, for participant dedup *)
  participants : int Atomic.t;    (* distinct domains that ran >= 1 chunk *)
  chunk_wall_sum : int64 Atomic.t;  (* summed per-chunk wall, ns *)
  chunk_wall_max : int64 Atomic.t;  (* slowest chunk, ns *)
}

type pool = {
  m : Mutex.t;
  work : Condition.t;   (* workers wait here for a new generation *)
  done_ : Condition.t;  (* the submitter waits here for completion *)
  mutable gen : int;
  mutable job : job option;
  mutable quit : bool;
  mutable workers : unit Domain.t list;
  mutable busy : bool;  (* a job is in flight on the submitting domain *)
}

let pool = {
  m = Mutex.create ();
  work = Condition.create ();
  done_ = Condition.create ();
  gen = 0;
  job = None;
  quit = false;
  workers = [];
  busy = false;
}

let max_domains = 64

(* The pool size is the one setting the library reads from the
   environment: it changes speed, never results (every fan-out is
   bit-identical for any domain count), and the test suite's
   multi-domain pass sets it for a whole run. *)
let[@sider.allow "determinism"] env_domains () =
  match Sys.getenv_opt "SIDER_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> Stdlib.min n max_domains
     | _ -> 1)

(* Target size: [None] until the first parallel call (lazily seeded from
   the environment) or an explicit [set_domains]. *)
let target : int option ref = ref None

let main_domain = Domain.self ()

(* Last job generation this domain participated in: lets an instrumented
   job count distinct participating domains with one DLS read per chunk
   instead of a shared set. *)
let seen_gen : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let atomic_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if Int64.compare v cur <= 0 || Atomic.compare_and_set a cur v then ()
    else go ()
  in
  go ()

let atomic_add_i64 a v =
  let rec go () =
    let cur = Atomic.get a in
    if Atomic.compare_and_set a cur (Int64.add cur v) then () else go ()
  in
  go ()

let drain_chunks j =
  let continue_ = ref true in
  while !continue_ do
    let c = Atomic.fetch_and_add j.next 1 in
    if c >= j.chunks then continue_ := false
    else begin
      let t0 =
        if j.obs then begin
          let seen = Domain.DLS.get seen_gen in
          if !seen <> j.job_gen then begin
            seen := j.job_gen;
            Atomic.incr j.participants
          end;
          Obs.now_ns ()
        end
        else 0L
      in
      (try j.run_chunk c
       with e ->
         Mutex.lock pool.m [@sider.lock "pool_m"];
         if j.failed = None then j.failed <- Some e;
         Mutex.unlock pool.m);
      if j.obs then begin
        let dt = Int64.sub (Obs.now_ns ()) t0 in
        (* By-name on purpose: this records from worker domains, and
           histogram handles are single-writer (controller domain only,
           see obs.mli) — [Obs.observe] takes the registry lock, which
           is the only domain-safe recording path here.  One lookup per
           chunk, under [j.obs] only. *)
        Obs.observe "par.chunk_wall_s" (Int64.to_float dt /. 1e9)
        [@sider.allow "obs-hygiene"];
        atomic_add_i64 j.chunk_wall_sum dt;
        atomic_max j.chunk_wall_max dt
      end;
      (* The finisher of the last chunk wakes the submitter; the
         broadcast is taken under the pool mutex so it cannot be lost
         between the submitter's check and its wait. *)
      if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
        Mutex.lock pool.m [@sider.lock "pool_m"];
        Condition.broadcast pool.done_;
        Mutex.unlock pool.m
      end
    end
  done

let worker () =
  let last_gen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock pool.m [@sider.lock "pool_m"];
    while (not pool.quit) && pool.gen = !last_gen do
      Condition.wait pool.work pool.m
    done;
    if pool.quit then begin
      Mutex.unlock pool.m;
      continue_ := false
    end
    else begin
      last_gen := pool.gen;
      let j = pool.job in
      Mutex.unlock pool.m;
      match j with Some j -> drain_chunks j | None -> ()
    end
  done

let shutdown () =
  Mutex.lock pool.m [@sider.lock "pool_m"];
  pool.quit <- true;
  Condition.broadcast pool.work;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.m;
  List.iter Domain.join workers;
  Mutex.lock pool.m [@sider.lock "pool_m"];
  pool.quit <- false;
  Mutex.unlock pool.m

let () = at_exit shutdown

(* Grow or shrink the worker set so that [workers + 1 = size].  Shrinking
   tears the whole pool down and re-spawns (simple, and only tests and
   the scaling bench resize). *)
let resize size =
  let have = List.length pool.workers + 1 in
  if size < have then shutdown ();
  let have = List.length pool.workers + 1 in
  if size > have then begin
    let extra = List.init (size - have) (fun _ -> Domain.spawn worker) in
    Mutex.lock pool.m [@sider.lock "pool_m"];
    pool.workers <- extra @ pool.workers;
    Mutex.unlock pool.m
  end

let domain_count () =
  match !target with Some n -> n | None -> env_domains ()

let set_domains n =
  let n = Stdlib.max 1 (Stdlib.min n max_domains) in
  target := Some n;
  resize n;
  Obs.gauge "par.domains" (float_of_int n)

(* Lazily bring the worker set in line with the target (first call reads
   the environment). *)
let ensure_pool () =
  let n = domain_count () in
  if !target = None then target := Some n;
  if List.length pool.workers + 1 <> n then resize n;
  n

(* A parallel primitive invoked from a worker domain, or re-entrantly
   from inside a parallel body on the submitting domain, must not publish
   a second job: it runs sequentially (the fixed chunk structure makes
   the result identical either way). *)
let can_engage () =
  (not pool.busy) && Domain.self () = main_domain

let run_job ~chunks run_chunk =
  let obs = Obs.enabled () in
  Mutex.lock pool.m [@sider.lock "pool_m"];
  let gen = pool.gen + 1 in
  Mutex.unlock pool.m;
  let j = {
    run_chunk;
    chunks;
    next = Atomic.make 0;
    remaining = Atomic.make chunks;
    failed = None;
    obs;
    job_gen = gen;
    participants = Atomic.make 0;
    chunk_wall_sum = Atomic.make 0L;
    chunk_wall_max = Atomic.make 0L;
  } in
  if obs then Obs.count "par.tasks_queued";
  Mutex.lock pool.m [@sider.lock "pool_m"];
  pool.busy <- true;
  pool.job <- Some j;
  pool.gen <- gen;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  drain_chunks j;
  Mutex.lock pool.m [@sider.lock "pool_m"];
  while Atomic.get j.remaining > 0 do
    Condition.wait pool.done_ pool.m
  done;
  pool.job <- None;
  pool.busy <- false;
  Mutex.unlock pool.m;
  if obs then begin
    let size = List.length pool.workers + 1 in
    Obs.gauge "par.pool_utilization"
      (float_of_int (Atomic.get j.participants)
       /. float_of_int (Stdlib.max 1 size));
    let sum = Int64.to_float (Atomic.get j.chunk_wall_sum) in
    let mx = Int64.to_float (Atomic.get j.chunk_wall_max) in
    if sum > 0.0 && chunks > 0 then
      (* Slowest chunk over the mean chunk: 1.0 = perfectly balanced. *)
      Obs.gauge "par.chunk_imbalance" (mx /. (sum /. float_of_int chunks))
  end;
  match j.failed with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Fan-out primitives. *)

let default_min = 512

let instrument label chunks f =
  if not (Obs.enabled ()) then f ()
  else begin
    Obs.count "par.tasks";
    Obs.count ~by:chunks "par.chunks";
    match label with
    | None -> f ()
    | Some l -> Obs.with_span "par.run" ~attrs:[ ("label", Obs.Str l) ] f
  end

let parallel_for_chunks ?chunk ?(min = default_min) ?label ~n body =
  if n > 0 then begin
    let csize = chunk_size ~chunk n in
    let chunks = n_chunks ~csize n in
    let run_chunk c =
      let lo = c * csize in
      let hi = Stdlib.min n (lo + csize) in
      body lo hi
    in
    if n < min || chunks = 1 || ensure_pool () = 1 || not (can_engage ())
    then
      for c = 0 to chunks - 1 do run_chunk c done
    else
      instrument label chunks (fun () -> run_job ~chunks run_chunk)
  end

let parallel_for ?chunk ?min ?label ~n f =
  parallel_for_chunks ?chunk ?min ?label ~n (fun lo hi ->
      for i = lo to hi - 1 do f i done)

(* Ordered binary tree over the chunk partials; the shape depends only on
   the chunk count.  Left-heavy split so that counts <= 3 reduce exactly
   like a left fold. *)
let rec tree_combine combine (partials : 'a array) lo hi =
  if hi - lo = 1 then partials.(lo)
  else begin
    let mid = lo + ((hi - lo + 1) / 2) in
    combine
      (tree_combine combine partials lo mid)
      (tree_combine combine partials mid hi)
  end

let parallel_reduce_chunks ?chunk ?(min = default_min) ?label ~n ~part
    ~combine () =
  if n <= 0 then None
  else begin
    let csize = chunk_size ~chunk n in
    let chunks = n_chunks ~csize n in
    let partials = Array.make chunks None in
    let run_chunk c =
      let lo = c * csize in
      let hi = Stdlib.min n (lo + csize) in
      partials.(c) <- Some (part lo hi)
    in
    if n < min || chunks = 1 || ensure_pool () = 1 || not (can_engage ())
    then
      for c = 0 to chunks - 1 do run_chunk c done
    else
      instrument label chunks (fun () -> run_job ~chunks run_chunk);
    let resolved =
      Array.map
        (function
          | Some v -> v
          | None -> failwith "Par.parallel_reduce: missing partial")
        partials
    in
    Some (tree_combine combine resolved 0 chunks)
  end

let parallel_reduce ?chunk ?min ?label ~n ~init ~step ~combine () =
  match
    parallel_reduce_chunks ?chunk ?min ?label ~n
      ~part:(fun lo hi ->
        let acc = ref init in
        for i = lo to hi - 1 do
          acc := step !acc i
        done;
        !acc)
      ~combine ()
  with
  | Some v -> v
  | None -> init
