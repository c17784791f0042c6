(* Analyst personas for the load generator: each persona drives one
   tenant session through a characteristic constraint mix, mirroring
   the behaviours the paper's use cases exercise by hand.

   The persona layer is transport-agnostic: it issues logical steps
   through an [api] callback (supplied by `sider load`, which owns the
   keep-alive client, shed-retry policy and latency bookkeeping) and
   only decides *what* to send.  Everything is deterministic from the
   caller's Rng, so a load run replays exactly from its seed. *)

open Sider_data
open Sider_linalg
open Sider_rand
open Sider_robust
module Kmeans = Sider_stats.Kmeans

type kind = Basic | Outlier_hunter | Cluster_splitter | Adversarial | Mixed

let all =
  [ ("basic", Basic);
    ("outlier-hunter", Outlier_hunter);
    ("cluster-splitter", Cluster_splitter);
    ("adversarial", Adversarial);
    ("mixed", Mixed) ]

let to_string kind =
  fst (List.find (fun (_, k) -> k = kind) all)

type api = { call : ?body:string -> meth:string -> string -> (int * string) option }

type outcome = { steps_ok : int; steps_failed : int }

(* --- step helpers ----------------------------------------------------------- *)

(* One logical step: issue the request, expect the status, count the
   result.  Returns the response body so read steps can feed later
   writes (e.g. a projection that decides which rows to mark). *)
let step st api ?body ~meth path ~expect =
  match api.call ?body ~meth path with
  | Some (status, resp) when status = expect ->
    st := (fst !st + 1, snd !st);
    Some resp
  | Some _ | None ->
    st := (fst !st, snd !st + 1);
    None

let constraint_body ?rows ctype =
  Json.to_string
    (Json.Obj
       (("type", Json.String ctype)
        :: (match rows with
            | Some r -> [ ("rows", Json.ints r) ]
            | None -> [])))

let update_body ~time_cutoff ~max_sweeps =
  Json.to_string
    (Json.Obj
       [ ("time_cutoff", Json.Number time_cutoff);
         ("max_sweeps", Json.Number (float_of_int max_sweeps)) ])

let view_body method_name =
  Json.to_string (Json.Obj [ ("method", Json.String method_name) ])

(* The projection endpoint's point list as (index, x, y); [] if the
   body is not the expected shape (the step is then counted failed by
   whatever consumes the empty list). *)
let projection_points body =
  match Json.of_string body with
  | exception Json.Parse_error _ -> [||]
  | j ->
    (match Json.member_opt "points" j with
     | None -> [||]
     | Some pts ->
       (try
          Json.to_list pts
          |> List.map (fun p ->
              ( Json.to_int (Json.member "i" p),
                Json.to_float (Json.member "x" p),
                Json.to_float (Json.member "y" p) ))
          |> Array.of_list
        with Invalid_argument _ | Not_found -> [||]))

(* --- persona behaviours ----------------------------------------------------- *)

let spath id rest = "/sessions/" ^ id ^ rest

(* The seed workload: one cluster constraint over the first half of the
   rows, one solver update, one projection fetch.  This is exactly what
   `sider load` drove before personas existed. *)
let drive_basic st api ~id ~rows =
  let half = Array.init (max 1 (rows / 2)) Fun.id in
  ignore
    (step st api ~body:(constraint_body ~rows:half "cluster") ~meth:"POST"
       (spath id "/constraints") ~expect:200);
  ignore
    (step st api
       ~body:(update_body ~time_cutoff:0.5 ~max_sweeps:20)
       ~meth:"POST" (spath id "/update") ~expect:200);
  ignore (step st api ~meth:"GET" (spath id "/projection") ~expect:200)

(* Looks at the view, marks the points farthest from the view centroid
   as a 2-D constraint ("those stragglers belong where I put them"),
   re-solves and asks for an ICA view to chase sharper outliers. *)
let drive_outlier_hunter st api ~id ~rows =
  let k = max 2 (rows / 8) in
  let picked =
    match step st api ~meth:"GET" (spath id "/projection") ~expect:200 with
    | None -> [||]
    | Some body ->
      let pts = projection_points body in
      let n = Array.length pts in
      if n = 0 then [||]
      else begin
        let cx = ref 0.0 and cy = ref 0.0 in
        Array.iter (fun (_, x, y) -> cx := !cx +. x; cy := !cy +. y) pts;
        let cx = !cx /. float_of_int n and cy = !cy /. float_of_int n in
        let dist (_, x, y) = ((x -. cx) ** 2.0) +. ((y -. cy) ** 2.0) in
        Array.sort (fun a b -> Float.compare (dist b) (dist a)) pts;
        Array.map (fun (i, _, _) -> i) (Array.sub pts 0 (min k n))
      end
  in
  let picked = if Array.length picked = 0 then [| 0 |] else picked in
  ignore
    (step st api ~body:(constraint_body ~rows:picked "two_d") ~meth:"POST"
       (spath id "/constraints") ~expect:200);
  ignore
    (step st api
       ~body:(update_body ~time_cutoff:0.5 ~max_sweeps:20)
       ~meth:"POST" (spath id "/update") ~expect:200);
  ignore
    (step st api ~body:(view_body "ica") ~meth:"POST" (spath id "/view")
       ~expect:200)

(* Client-side reimplementation of what Auto_explore.mark_clusters does
   in-process: fetch the 2-D view, k-means it (k by silhouette), mark
   each sizeable cluster as a cluster constraint, re-solve. *)
let drive_cluster_splitter st api ~rng ~id ~rows =
  let clusters =
    match step st api ~meth:"GET" (spath id "/projection") ~expect:200 with
    | None -> []
    | Some body ->
      let pts = projection_points body in
      let n = Array.length pts in
      if n < 4 then []
      else begin
        let coords =
          Mat.init n 2 (fun i j ->
              let _, x, y = pts.(i) in
              if j = 0 then x else y)
        in
        let km = Kmeans.choose_k ~k_max:4 rng coords in
        let by_cluster = Hashtbl.create 8 in
        Array.iteri
          (fun i c ->
            let idx, _, _ = pts.(i) in
            Hashtbl.replace by_cluster c
              (idx :: Option.value ~default:[] (Hashtbl.find_opt by_cluster c)))
          km.Kmeans.assignment;
        Hashtbl.fold (fun _ members acc -> members :: acc) by_cluster []
        |> List.filter (fun m -> List.length m >= 2)
        |> List.filteri (fun i _ -> i < 3)
      end
  in
  let clusters =
    match clusters with
    | [] -> [ Array.to_list (Array.init (max 1 (rows / 2)) Fun.id) ]
    | cs -> cs
  in
  List.iter
    (fun members ->
      ignore
        (step st api
           ~body:(constraint_body ~rows:(Array.of_list members) "cluster")
           ~meth:"POST" (spath id "/constraints") ~expect:200))
    clusters;
  ignore
    (step st api
       ~body:(update_body ~time_cutoff:0.5 ~max_sweeps:20)
       ~meth:"POST" (spath id "/update") ~expect:200);
  ignore (step st api ~meth:"GET" (spath id "/projection") ~expect:200)

(* The hostile analyst: pathological row sets (duplicates, heavy
   overlap, singletons, interleaved combs — Fault.adversarial_rowsets),
   margin + 1-cluster spam, and an update with a starved cutoff so the
   solver's early-exit path is exercised under load. *)
let drive_adversarial st api ~rng ~id ~rows =
  let rowsets = Array.of_list (Fault.adversarial_rowsets ~n:(max 2 rows)) in
  let pick () = rowsets.(Rng.int rng (Array.length rowsets)) in
  ignore
    (step st api ~body:(constraint_body ~rows:(pick ()) "cluster")
       ~meth:"POST" (spath id "/constraints") ~expect:200);
  ignore
    (step st api ~body:(constraint_body ~rows:(pick ()) "cluster")
       ~meth:"POST" (spath id "/constraints") ~expect:200);
  ignore
    (step st api ~body:(constraint_body "margin") ~meth:"POST"
       (spath id "/constraints") ~expect:200);
  ignore
    (step st api ~body:(constraint_body "one_cluster") ~meth:"POST"
       (spath id "/constraints") ~expect:200);
  ignore
    (step st api
       ~body:(update_body ~time_cutoff:0.05 ~max_sweeps:6)
       ~meth:"POST" (spath id "/update") ~expect:200);
  ignore
    (step st api ~body:(view_body "pca") ~meth:"POST" (spath id "/view")
       ~expect:200)

let rec drive ~rng ~rows kind api ~id =
  match kind with
  | Basic ->
    let st = ref (0, 0) in
    drive_basic st api ~id ~rows;
    let ok, failed = !st in
    { steps_ok = ok; steps_failed = failed }
  | Outlier_hunter ->
    let st = ref (0, 0) in
    drive_outlier_hunter st api ~id ~rows;
    let ok, failed = !st in
    { steps_ok = ok; steps_failed = failed }
  | Cluster_splitter ->
    let st = ref (0, 0) in
    drive_cluster_splitter st api ~rng ~id ~rows;
    let ok, failed = !st in
    { steps_ok = ok; steps_failed = failed }
  | Adversarial ->
    let st = ref (0, 0) in
    drive_adversarial st api ~rng ~id ~rows;
    let ok, failed = !st in
    { steps_ok = ok; steps_failed = failed }
  | Mixed ->
    let concrete =
      [| Basic; Outlier_hunter; Cluster_splitter; Adversarial |]
    in
    drive ~rng ~rows concrete.(Rng.int rng (Array.length concrete)) api ~id
