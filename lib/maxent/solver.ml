open Sider_linalg
open Sider_rand
open Sider_robust
module Obs = Sider_obs.Obs
module Par = Sider_par.Par

(* Per-equivalence-class applies fan out across the domain pool: classes
   are disjoint state, so bodies touch disjoint [Gauss_params.t] values
   and the result is bit-identical for any domain count.  One class per
   chunk ([~chunk:1]): class updates are O(d²) each and the class count
   is small. *)
let par_classes_min = 2

(* Bound on a single multiplier change.  The root search reaches it only
   when a constraint's target variance is exactly zero (the singular
   optimum of Eq. 13). *)
let lambda_cap = 1e7

(* Sweeps a solve may roll back after a NaN scan before it stops at the
   last finite state. *)
let recovery_budget = 8

type t = {
  data : Mat.t;
  constraints : Constr.t array;
  partition : Partition.t;
  classes : Gauss_params.t array;
  data_sd : float;
}

type sweep = {
  sweep : int;
  updates : int;
  max_dlambda : float;
  max_dparam : float;
  woodbury_fast : int;
  woodbury_recompute : int;
  woodbury_frozen : int;
}

type report = {
  sweeps : int;
  updates : int;
  converged : bool;
  max_dlambda : float;
  max_dparam : float;
  elapsed : float;
  degradations : Sider_error.t list;
}

let overall_sd data =
  let vars = Mat.col_variances data in
  let mean_var = Vec.mean vars in
  Float.max (sqrt mean_var) 1e-12

let build data constraints init_params =
  let n, d = Mat.dims data in
  let constraints = Array.of_list constraints in
  let partition = Partition.of_constraints ~n constraints in
  let classes =
    Array.init (Partition.n_classes partition) (fun c ->
        init_params ~cls:c ~representative:(Partition.members partition c).(0) ~d)
  in
  { data; constraints; partition; classes; data_sd = overall_sd data }

let create data constraints =
  build data constraints (fun ~cls:_ ~representative:_ ~d ->
      Gauss_params.initial d)

let add_constraints t extra =
  let all = Array.to_list t.constraints @ extra in
  (* New classes refine old ones: inherit the old parameters of any member
     row (all members shared one old class). *)
  build t.data all (fun ~cls:_ ~representative ~d:_ ->
      Gauss_params.copy
        t.classes.(Partition.class_of_row t.partition representative))

let data t = t.data

let constraints t = t.constraints

let partition t = t.partition

let n_classes t = Array.length t.classes

let class_params t i = t.classes.(i)

let row_params t r = t.classes.(Partition.class_of_row t.partition r)

(* --- expectations ------------------------------------------------------- *)

let expectation_idx t idx =
  let constr = t.constraints.(idx) in
  let w = constr.Constr.w in
  let acc = ref 0.0 in
  Array.iter
    (fun (cls, cnt) ->
      let p = t.classes.(cls) in
      let term =
        match constr.Constr.kind with
        | Constr.Linear -> Gauss_params.proj_mean p w
        | Constr.Quadratic ->
          let q = Gauss_params.proj_mean p w -. constr.Constr.shift in
          Gauss_params.proj_var p w +. (q *. q)
      in
      acc := !acc +. (float_of_int cnt *. term))
    (Partition.classes_of_constraint t.partition idx);
  !acc

let expectation t constr =
  (* General version for constraints not necessarily registered with the
     solver: falls back to per-row parameters. *)
  let w = constr.Constr.w in
  Array.fold_left
    (fun acc r ->
      let p = row_params t r in
      acc
      +.
      match constr.Constr.kind with
      | Constr.Linear -> Gauss_params.proj_mean p w
      | Constr.Quadratic ->
        let q = Gauss_params.proj_mean p w -. constr.Constr.shift in
        Gauss_params.proj_var p w +. (q *. q))
    0.0 constr.Constr.rows

let residual t =
  let worst = ref 0.0 in
  Array.iteri
    (fun idx (constr : Constr.t) ->
      let v = expectation_idx t idx in
      let scale = Float.max 1.0 (Float.abs constr.Constr.target) in
      worst := Float.max !worst (Float.abs (v -. constr.Constr.target) /. scale))
    t.constraints;
  !worst

let residual_by_kind t =
  let worst_l = ref 0.0 and worst_q = ref 0.0 in
  Array.iteri
    (fun idx (constr : Constr.t) ->
      let v = expectation_idx t idx in
      let scale = Float.max 1.0 (Float.abs constr.Constr.target) in
      let r = Float.abs (v -. constr.Constr.target) /. scale in
      match constr.Constr.kind with
      | Constr.Linear -> worst_l := Float.max !worst_l r
      | Constr.Quadratic -> worst_q := Float.max !worst_q r)
    t.constraints;
  (!worst_l, !worst_q)

(* --- one constraint update ---------------------------------------------- *)

(* The Woodbury outcomes of one sweep's quadratic class applies. *)
type tally = {
  mutable fast : int;
  mutable recompute : int;
  mutable frozen : int;
}

(* Linear constraint (Eq. 9): the mean along w shifts by λ wᵀΣw per row,
   Σ unchanged, so λ = (v̂ − ṽ) / Σ_i wᵀΣ_i w.  [damp] scales the step
   (1.0 = the exact Eq. 9 step): the solver halves it while recovering
   from a numerically failed sweep. *)
let update_linear t idx ~damp =
  let constr = t.constraints.(idx) in
  let w = constr.Constr.w in
  let groups = Partition.classes_of_constraint t.partition idx in
  let v_cur = ref 0.0 and denom = ref 0.0 in
  Array.iter
    (fun (cls, cnt) ->
      let p = t.classes.(cls) in
      let fcnt = float_of_int cnt in
      v_cur := !v_cur +. (fcnt *. Gauss_params.proj_mean p w);
      denom := !denom +. (fcnt *. Gauss_params.proj_var p w))
    groups;
  if !denom <= 0.0 then (0.0, 0.0, [])
  else begin
    let lambda = damp *. (constr.Constr.target -. !v_cur) /. !denom in
    let dparam =
      Par.parallel_reduce ~chunk:1 ~min:par_classes_min
        ~label:"solver.apply_linear" ~n:(Array.length groups) ~init:0.0
        ~step:(fun acc i ->
          let cls, _ = groups.(i) in
          let p = t.classes.(cls) in
          let acc =
            Float.max acc (Float.abs (lambda *. Gauss_params.proj_var p w))
          in
          Gauss_params.apply_linear p ~lambda ~w;
          acc)
        ~combine:Float.max ()
    in
    (lambda, dparam, [])
  end

(* Quadratic constraint: after adding λwwᵀ to Σ⁻¹ and λδw to θ₁, the
   expectation becomes (per class, derivation in DESIGN.md)
     v(λ) = Σ cnt [ c/(1+λc) + (e−δ)²/(1+λc)² ],
   with c = wᵀΣw and e = wᵀm frozen at their pre-update values.  v is
   strictly decreasing on (−1/max c, ∞) with range (0, ∞), so the root of
   v(λ) = v̂ is unique; we locate it by bracketed bisection with Newton
   acceleration.  The Woodbury outcome of each class apply is added to
   [tally], the running counts of the sweep. *)
let update_quadratic t idx ~damp ~tally =
  let constr = t.constraints.(idx) in
  let w = constr.Constr.w in
  let delta = constr.Constr.shift in
  let groups = Partition.classes_of_constraint t.partition idx in
  let k = Array.length groups in
  let cs = Array.make k 0.0
  and es = Array.make k 0.0
  and cnts = Array.make k 0.0 in
  Par.parallel_for ~chunk:1 ~min:par_classes_min ~label:"solver.quad_scan"
    ~n:k (fun i ->
      let cls, cnt = groups.(i) in
      let p = t.classes.(cls) in
      cs.(i) <- Gauss_params.proj_var p w;
      es.(i) <- Gauss_params.proj_mean p w;
      cnts.(i) <- float_of_int cnt);
  let c_max = Array.fold_left Float.max 0.0 cs in
  let v lambda =
    let acc = ref 0.0 in
    for i = 0 to k - 1 do
      let denom = 1.0 +. (lambda *. cs.(i)) in
      let q = es.(i) -. delta in
      acc := !acc +. (cnts.(i) *. ((cs.(i) /. denom) +. (q *. q /. (denom *. denom))))
    done;
    !acc
  in
  let v_hat = Float.max constr.Constr.target 0.0 in
  if c_max <= 0.0 then (0.0, 0.0, []) (* direction already degenerate: frozen *)
  else begin
    let lo = -1.0 /. c_max in
    let v0 = v 0.0 in
    let lambda =
      if Float.abs (v0 -. v_hat) <= 1e-14 *. Float.max 1.0 v_hat then 0.0
      else begin
        (* Bracket the root. *)
        let a = ref (lo *. (1.0 -. 1e-12)) and b = ref 0.0 in
        if v0 > v_hat then begin
          (* Root is at positive λ: expand b upward. *)
          a := 0.0;
          b := 1.0 /. c_max;
          while v !b > v_hat && !b < lambda_cap do
            b := !b *. 2.0
          done;
          if !b > lambda_cap then b := lambda_cap
        end
        else begin
          (* Root at negative λ (variance must grow). *)
          a := lo *. (1.0 -. 1e-12);
          b := 0.0
        end;
        (* Bisection with a Newton refinement step each iteration. *)
        let x = ref (0.5 *. (!a +. !b)) in
        let iter = ref 0 in
        while !iter < 200 && (!b -. !a) > 1e-14 *. (1.0 +. Float.abs !x) do
          incr iter;
          x := 0.5 *. (!a +. !b);
          let vx = v !x in
          if vx > v_hat then a := !x else b := !x
        done;
        0.5 *. (!a +. !b)
      end
    in
    (* Damping shrinks the step toward 0; since λ = 0 is always interior
       to the feasible interval (−1/max c, ∞), a damped step can never
       leave it. *)
    let lambda = damp *. lambda in
    if Float.equal lambda 0.0 then (0.0, 0.0, [])
    else begin
      (* Per-chunk partials are (max |Δparam|, reversed fault list,
         Woodbury fast/recompute/frozen counts); the ordered tree combine
         prepends higher-index chunks, reproducing exactly the reversed
         order the sequential fold built. *)
      let apply_range lo hi =
        let dp = ref 0.0 and faults = ref [] in
        let fast = ref 0 and recompute = ref 0 and frozen = ref 0 in
        for i = lo to hi - 1 do
          let cls, _ = groups.(i) in
          let p = t.classes.(cls) in
          let denom = 1.0 +. (lambda *. cs.(i)) in
          let dsd = sqrt (cs.(i) /. denom) -. sqrt cs.(i) in
          let dmean = lambda *. (delta -. es.(i)) *. cs.(i) /. denom in
          dp := Float.max !dp (Float.max (Float.abs dsd) (Float.abs dmean));
          match Gauss_params.apply_quadratic p ~lambda ~delta ~w with
          | `Sherman_morrison -> incr fast
          | `Recomputed ->
            incr recompute;
            faults :=
              Sider_error.singular_covariance ~class_index:cls
                ~constraint_tag:constr.Constr.tag
                "rank-1 update lost positive definiteness; recomputed Σ \
                 in full"
              :: !faults
          | `Frozen ->
            incr frozen;
            faults :=
              Sider_error.singular_covariance ~class_index:cls
                ~constraint_tag:constr.Constr.tag
                "rank-1 update and full recompute both failed; class \
                 frozen for this update"
              :: !faults
        done;
        (!dp, !faults, !fast, !recompute, !frozen)
      in
      match
        Par.parallel_reduce_chunks ~chunk:1 ~min:par_classes_min
          ~label:"solver.apply_quadratic" ~n:k ~part:apply_range
          ~combine:(fun (d1, f1, a1, r1, z1) (d2, f2, a2, r2, z2) ->
            (Float.max d1 d2, f2 @ f1, a1 + a2, r1 + r2, z1 + z2))
          ()
      with
      | None -> (lambda, 0.0, [])
      | Some (dparam, faults, fast, recompute, frozen) ->
        tally.fast <- tally.fast + fast;
        tally.recompute <- tally.recompute + recompute;
        tally.frozen <- tally.frozen + frozen;
        (lambda, dparam, faults)
    end
  end

(* --- main loop ----------------------------------------------------------- *)

(* Non-finite scan of the class parameters: the state that must stay
   finite for every downstream consumer (whitening, sampling, scores). *)
let first_bad_class t =
  let bad = ref None in
  Array.iteri
    (fun cls p ->
      if !bad = None
         && not
              (Kernels.finite_vec p.Gauss_params.mean
               && Kernels.finite_vec p.Gauss_params.theta1
               && Kernels.finite_mat p.Gauss_params.sigma)
      then bad := Some cls)
    t.classes;
  !bad

let restore_classes t snapshot =
  Array.iteri (fun cls p -> t.classes.(cls) <- Gauss_params.copy p) snapshot

(* One constraint update.  It records no telemetry: a constraint update
   is hundreds per solve, each ~10 µs of useful work, so the solver
   records at sweep granularity only — see [solve_body]. *)
let run_update t idx (constr : Constr.t) ~damp ~tally =
  match constr.Constr.kind with
  | Constr.Linear -> update_linear t idx ~damp
  | Constr.Quadratic -> update_quadratic t idx ~damp ~tally

(* A sweep's Woodbury outcomes into the [gauss.woodbury.*] counters, once
   per sweep; a zero count leaves its counter untouched (and unmade). *)
let count_woodbury tally =
  if tally.fast > 0 then Obs.count ~by:tally.fast "gauss.woodbury.fast";
  if tally.recompute > 0 then
    Obs.count ~by:tally.recompute "gauss.woodbury.recompute";
  if tally.frozen > 0 then Obs.count ~by:tally.frozen "gauss.woodbury.frozen"

(* Wall clock off the process-epoch monotonic base in lib/obs — the one
   sanctioned clock, so cutoff and [elapsed] agree with the telemetry
   timeline and stay meaningful when sweeps fan out across domains
   (CPU time used to multiply by the domain count). *)
let now_s () = Int64.to_float (Obs.now_ns ()) *. 1e-9

(* Iterative scaling: full sweeps over every constraint, starting from
   whatever class parameters the solver holds (the prior for a fresh
   solver, the inherited optimum after [add_constraints]). *)
let solve_body ~max_sweeps ~lambda_tol ~param_tol ~time_cutoff ~trace t =
  let start = now_s () in
  let sweeps = ref 0 and updates = ref 0 in
  let converged = ref false in
  let last_dlambda = ref infinity and last_dparam = ref infinity in
  let degradations = ref [] in
  let recoveries_left = ref recovery_budget in
  let damp = ref 1.0 in
  let stop = ref false in
  (* The rollback snapshot: allocated once per solve, refilled in place
     at the start of every sweep. *)
  let snapshot = Array.map Gauss_params.copy t.classes in
  let degrade e =
    Obs.count "solver.degradation";
    Obs.flight_event ~name:"solver.degradation" ~detail:(Sider_error.to_string e);
    Obs.flight_auto_dump ~reason:(Sider_error.to_string e) ();
    degradations := e :: !degradations
  in
  let cut_off () =
    match time_cutoff with
    | None -> false
    | Some budget -> now_s () -. start > budget
  in
  while (not !stop) && (not !converged) && !sweeps < max_sweeps
        && not (cut_off ())
  do
    incr sweeps;
    let sweep = !sweeps in
    Obs.with_span "solver.sweep" ~attrs:[ ("sweep", Obs.Int sweep) ]
    @@ fun () ->
    (* Fault-injection hooks (no-ops unless a test armed them). *)
    if Fault.should_fail_sweep ~sweep then
      Sider_error.raise_
        (Sider_error.solver_divergence ~sweep "injected sweep failure");
    (match Fault.nan_class_for_sweep ~sweep with
     | Some cls when cls < Array.length t.classes ->
       t.classes.(cls).Gauss_params.mean.(0) <- Float.nan
     | _ -> ());
    (* Pre-sweep scan: parameters poisoned outside a sweep (injection,
       corrupted inherited state) are reset to the prior for that class —
       the only finite state available before any snapshot exists. *)
    (match first_bad_class t with
     | Some cls ->
       let _, d = Mat.dims t.data in
       t.classes.(cls) <- Gauss_params.initial d;
       degrade
         (Sider_error.nan_detected ~class_index:cls ~sweep
            "non-finite class parameters at sweep start; class reset to \
             the prior")
     | None -> ());
    Array.iteri
      (fun cls p -> Gauss_params.copy_into ~dst:snapshot.(cls) p)
      t.classes;
    let max_dl = ref 0.0 and max_dp = ref 0.0 in
    let tally = { fast = 0; recompute = 0; frozen = 0 } in
    Array.iteri
      (fun idx constr ->
        let dl, dp, faults = run_update t idx constr ~damp:!damp ~tally in
        incr updates;
        List.iter degrade faults;
        max_dl := Float.max !max_dl (Float.abs dl);
        max_dp := Float.max !max_dp dp)
      t.constraints;
    (Obs.count ~by:(Array.length t.constraints) "solver.updates")
    [@sider.allow "obs-hygiene"];
    (* Counted before the scan below: a rolled-back sweep's applies still
       happened. *)
    count_woodbury tally;
    (* Post-sweep scan: a sweep that produced NaN/Inf anywhere is rolled
       back wholesale and retried with a halved step, under a bounded
       budget.  On exhaustion the solver stops at the last good state. *)
    (match first_bad_class t with
     | Some cls ->
       restore_classes t snapshot;
       Obs.count "solver.rollback" [@sider.allow "obs-hygiene"];
       if !recoveries_left > 0 then begin
         decr recoveries_left;
         damp := !damp /. 2.0;
         decr sweeps;
         (* The rolled-back sweep is retried; don't let its (bogus)
            deltas trigger the convergence test. *)
         degrade
           (Sider_error.nan_detected ~class_index:cls ~sweep
              (Printf.sprintf
                 "non-finite parameters after sweep; rolled back, \
                  retrying with step %.3g"
                 !damp))
       end
       else begin
         degrade
           (Sider_error.solver_divergence ~class_index:cls ~sweep
              (Printf.sprintf
                 "recovery budget (%d) exhausted; stopping at the last \
                  finite state"
                 recovery_budget));
         stop := true
       end
     | None ->
       last_dlambda := !max_dl;
       last_dparam := !max_dp;
       (match trace with
        | Some f ->
          f { sweep; updates = !updates; max_dlambda = !max_dl;
              max_dparam = !max_dp; woodbury_fast = tally.fast;
              woodbury_recompute = tally.recompute;
              woodbury_frozen = tally.frozen }
        | None -> ());
       (* A clean sweep earns the step size back (symmetric to the
          halving on failure, capped at the exact step). *)
       if !damp < 1.0 then damp := Float.min 1.0 (!damp *. 2.0);
       if !max_dl <= lambda_tol || !max_dp <= param_tol *. t.data_sd then
         converged := true)
  done;
  {
    sweeps = !sweeps;
    updates = !updates;
    converged = !converged;
    max_dlambda = !last_dlambda;
    max_dparam = !last_dparam;
    elapsed = now_s () -. start;
    degradations = List.rev !degradations;
  }

let solve ?(max_sweeps = 1000) ?(lambda_tol = 1e-2) ?(param_tol = 1e-2)
    ?time_cutoff ?trace t =
  let run () =
    solve_body ~max_sweeps ~lambda_tol ~param_tol ~time_cutoff ~trace t
  in
  if not (Obs.enabled ()) then run ()
  else begin
    let n, _ = Mat.dims t.data in
    Obs.with_span "solver.solve"
      ~attrs:
        [ ("constraints", Obs.Int (Array.length t.constraints));
          ("classes", Obs.Int (Array.length t.classes));
          ("rows", Obs.Int n) ]
      (fun () ->
        let report = run () in
        Obs.span_attr "sweeps" (Obs.Int report.sweeps);
        Obs.span_attr "converged" (Obs.Bool report.converged);
        Obs.span_attr "degradations"
          (Obs.Int (List.length report.degradations));
        report)
  end

let relative_entropy t =
  let _, d = Mat.dims t.data in
  let acc = ref 0.0 in
  Array.iteri
    (fun cls p ->
      let size = float_of_int (Partition.size t.partition cls) in
      let sigma = Mat.symmetrize p.Gauss_params.sigma in
      let m = p.Gauss_params.mean in
      (* log det through the PSD Cholesky; zero pivots (collapsed
         directions, Fig. 5) contribute −∞, clamped via the jitter floor
         of the factorization. *)
      let chol = Chol.decompose_psd ~jitter:1e-300 sigma in
      let log_det = ref 0.0 in
      for i = 0 to d - 1 do
        let pivot = Mat.get chol i i in
        log_det := !log_det +. (2.0 *. log (Float.max pivot 1e-150))
      done;
      let kl =
        0.5 *. (Mat.trace sigma +. Vec.dot m m -. float_of_int d -. !log_det)
      in
      acc := !acc +. (size *. kl))
    t.classes;
  !acc

(* --- sampling ------------------------------------------------------------ *)

let sample t rng =
  let n, d = Mat.dims t.data in
  let out = Mat.create n d in
  let oa = out.Mat.a in
  Array.iteri
    (fun cls p ->
      let chol = Chol.decompose_psd (Mat.symmetrize p.Gauss_params.sigma) in
      let ca = chol.Mat.a and mean = p.Gauss_params.mean in
      let rows = Partition.members t.partition cls in
      (* The class's member rows, in ascending order, take consecutive
         blocks of [d] draws: the draw order of one [Sampler.normal_vec]
         per row.  Each output entry is [mean_i + Σ_j chol_ij z_j] with
         one accumulator over ascending [j], the order of [Mat.mv], so
         the rows are the bits [Vec.add mean (Mat.mv chol z)] gives.
         The sum stops at the diagonal: the factor's upper entries are
         exact zeros, and adding ±0 never changes a sum started at +0.0. *)
      let z = Array.create_float (Array.length rows * d) in
      Rng.fill_normal rng z ~pos:0 ~len:(Array.length z);
      Array.iteri
        (fun k r ->
          let zoff = k * d and roff = r * d in
          for i = 0 to d - 1 do
            let coff = i * d in
            let acc = ref 0.0 in
            for j = 0 to i do
              acc :=
                !acc
                +. (Array.unsafe_get ca (coff + j)
                    *. Array.unsafe_get z (zoff + j))
            done;
            Array.unsafe_set oa (roff + i) (Array.unsafe_get mean i +. !acc)
          done)
        rows)
    t.classes;
  out

let mean_matrix t =
  let n, d = Mat.dims t.data in
  Mat.init n d (fun i j -> (row_params t i).Gauss_params.mean.(j))
