(* sider-lint: typed-AST static analysis for the sider reproduction.

   The two hardest guarantees of this codebase — bit-identical solver
   results at any domain count, and structured-error discipline in the
   numerical kernels — are enforced dynamically by the test suite
   (SIDER_DOMAINS=2 replays, fault injection).  This tool proves the
   cheap-to-prove half statically, at build time, by walking the .cmt
   typed ASTs that dune already emits and enforcing four rule families:

   - [determinism]      (R1) ambient-nondeterminism primitives (wall
     clock, global PRNG, hash-order Hashtbl folds, environment reads)
     are banned outside lib/obs, lib/serve, bench/ and bin/.
   - [domain-safety]    (R2) closures passed to Par.parallel_for{,_chunks}
     / parallel_reduce{,_chunks} must not write captured mutable state,
     unless it is Atomic, Mutex-guarded, Domain.DLS, or an array cell
     indexed by the loop variable (heuristic write-race detector).
   - [error-discipline] (R3a) in lib/linalg, lib/maxent, lib/stats and
     lib/projection, raises must go through Sider_robust.Sider_error:
     bare failwith / invalid_arg / assert false are flagged.
   - [float-equality]   (R3b) in the same directories, polymorphic =/<>
     on float operands is flagged (NaN hazard; use Float.equal or an
     explicit tolerance).
   - [obs-hygiene]      (R4) by-name Obs.count / Obs.gauge / Obs.observe
     / Obs.counter_value lookups inside loops are flagged — hot paths
     must use preregistered handles (Obs.labeled_hist / observe_into),
     per the PR 4 overhead budget.  (R6) the labeled variants
     Obs.count_labeled / Obs.observe_labeled are flagged the same way:
     a labeled by-name call re-resolves the composed series key (label
     sort + escape + hash + mutex) per iteration, so loops must
     preregister an Obs.labeled_hist handle instead.
   - [alloc-in-hot-loop] (R5) in lib/linalg, lib/maxent and
     lib/projection, allocating Mat operations (matmul / add / map /
     ... — anything with an [_into] sibling) inside a loop are flagged:
     each iteration allocates a fresh matrix the GC must then chase,
     which is exactly the churn the PR 8 fused-kernel work removed from
     the ICA hot path.  Write into a preallocated buffer instead.
   - [dead-export]      (R11) a [val] in a lib/ interface that no other
     compilation unit references, or that only test/ references: API the
     program does not use.  Deliberate test hooks carry
     [@@sider.allow "test-hook"].

   Escapes are explicit and auditable:

     let[@sider.allow "determinism"] stamp () = Unix.gettimeofday ()
     (x = y) [@sider.allow "float-equality"]
     [@@@sider.allow "error-discipline"]        (* whole file *)

   Findings print as [file:line: [rule] message] on stdout, sorted; the
   exit code is 1 when any finding survives, 0 otherwise, 2 on usage or
   I/O errors.  Only compiler-libs is used — no new dependencies. *)

let fixture_mode = ref false
let debug = ref false
let sarif_out : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* Rule identifiers                                                    *)
(* ------------------------------------------------------------------ *)

let r_det = "determinism"
let r_dom = "domain-safety"
let r_err = "error-discipline"
let r_flt = "float-equality"
let r_obs = "obs-hygiene"
let r_alloc = "alloc-in-hot-loop"

(* v2 interprocedural rule families (R7-R10), computed over per-function
   summaries after every .cmt has been scanned. *)
let r_lock = "lock-order"
let r_lsafe = "lock-safety"
let r_fd = "fd-leak"
let r_block = "blocking-under-lock"

(* R11, computed over every interface and every reference once the scan
   is done. *)
let r_dead = "dead-export"

let all_rules =
  [ r_det; r_dom; r_err; r_flt; r_obs; r_alloc; r_lock; r_lsafe; r_fd;
    r_block ]

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type finding = { file : string; line : int; rule : string; msg : string }

let findings : finding list ref = ref []
let files_scanned = ref 0

(* ------------------------------------------------------------------ *)
(* Per-directory policy                                                *)
(* ------------------------------------------------------------------ *)

(* Which rule families apply to a source file.  [domain-safety] applies
   everywhere.  In [--fixture-mode] every rule applies to every file, so
   the fixture suite can exercise each rule from a single directory. *)
type policy = { det : bool; err : bool; obs : bool; alloc : bool }

let starts_with_any prefixes s =
  List.exists (fun p -> String.starts_with ~prefix:p s) prefixes

(* Directories where ambient nondeterminism is part of the job: the
   telemetry clock lives in lib/obs, the HTTP server in lib/serve, and
   wall-clock measurement is the whole point of bench/ and the CLI. *)
let det_exempt = [ "lib/obs/"; "lib/serve/"; "bench/"; "bin/" ]

(* The numerical kernels whose failures must be structured errors. *)
let err_scoped = [ "lib/linalg/"; "lib/maxent/"; "lib/stats/"; "lib/projection/" ]

(* The hot numerical paths where per-iteration Mat allocation is banned.
   lib/stats is excluded: its loops are per-call one-shots, not the
   per-sweep / per-restart kernels the PR 8 budget covers. *)
let alloc_scoped = [ "lib/linalg/"; "lib/maxent/"; "lib/projection/" ]

let policy_of_file file =
  if !fixture_mode then { det = true; err = true; obs = true; alloc = true }
  else
    {
      det = not (starts_with_any det_exempt file);
      err = starts_with_any err_scoped file;
      (* lib/obs implements the metric registry itself. *)
      obs = not (String.starts_with ~prefix:"lib/obs/" file);
      alloc = starts_with_any alloc_scoped file;
    }

(* ------------------------------------------------------------------ *)
(* [@sider.allow "rule"] escapes                                       *)
(* ------------------------------------------------------------------ *)

(* Stack of active allow sets: one frame per attribute-carrying node on
   the path from the structure root to the current expression, plus one
   file-level frame for [@@@sider.allow] floating attributes. *)
let allow_stack : string list list ref = ref []

let rule_allowed rule = List.exists (List.mem rule) !allow_stack

let split_rule_ids s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let cur_file = ref ""

let report ~loc ~rule msg =
  if not (rule_allowed rule) then begin
    let pos = loc.Location.loc_start in
    let file = if pos.Lexing.pos_fname <> "" then pos.Lexing.pos_fname else !cur_file in
    findings := { file; line = pos.Lexing.pos_lnum; rule; msg } :: !findings
  end

(* Extract the rule ids allowed by a [sider.allow] attribute list; bad
   payloads and unknown rule ids are findings themselves, so a typo
   cannot silently disable a rule. *)
let allows_of_attributes (attrs : Parsetree.attributes) : string list =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "sider.allow" then []
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          let ids = split_rule_ids s in
          List.iter
            (fun id ->
              if not (List.mem id all_rules) then
                report ~loc:a.attr_loc ~rule:r_det
                  (Printf.sprintf
                     "[@sider.allow]: unknown rule id %S (known: %s)" id
                     (String.concat ", " all_rules)))
            ids;
          List.filter (fun id -> List.mem id all_rules) ids
        | _ ->
          report ~loc:a.attr_loc ~rule:r_det
            "[@sider.allow]: payload must be a string literal of rule ids";
          [])
    attrs

let with_allows allows f =
  if allows = [] then f ()
  else begin
    allow_stack := allows :: !allow_stack;
    Fun.protect ~finally:(fun () -> allow_stack := List.tl !allow_stack) f
  end

(* The ids of every well-formed [sider.allow] payload, unvalidated. *)
let allow_ids (attrs : Parsetree.attributes) : string list =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "sider.allow" then []
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          split_rule_ids s
        | _ -> [])
    attrs

(* Same extraction without the unknown-id findings: the summary pass
   (phase 1 of R7-R10) re-reads the attributes the R1-R6 walk already
   validated, so reporting again would duplicate findings. *)
let silent_allows attrs =
  List.filter (fun id -> List.mem id all_rules) (allow_ids attrs)

(* Flattened view of every allow frame active right now — captured onto
   summary events so phase-2 findings can honor escapes granted at the
   annotation site rather than at reporting time. *)
let cur_allowed () = List.concat !allow_stack

(* [@sider.lock "name"] payload, if present. *)
let lock_annotation (attrs : Parsetree.attributes) : string option =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "sider.lock" then None
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          Some (String.trim s)
        | _ -> None)
    attrs

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)
(* ------------------------------------------------------------------ *)

(* [Path.name] on idents resolved through the default [Stdlib] open
   yields "Stdlib.Random.int"; strip the prefix so match tables read
   naturally.  Module aliases keep their alias name in the path (e.g.
   [module Par = Sider_par.Par] callers yield "Par.parallel_for"), which
   the suffix matches below are written for. *)
let norm_path p =
  let n = Path.name p in
  match String.index_opt n '(' with
  | Some _ -> n (* functor application: leave as-is *)
  | None ->
    if String.starts_with ~prefix:"Stdlib." n then
      String.sub n 7 (String.length n - 7)
    else n

let ends_with_any suffixes s =
  List.exists (fun suf -> s = suf || String.ends_with ~suffix:("." ^ suf) s) suffixes

(* Dune-wrapped libraries mangle intra-library module references to
   "Sider_serve__Registry.find"; collapse every "Prefix__" chunk so the
   summary keys and match tables read "Registry.find" no matter which
   side of the wrapper the reference came from. *)
let collapse_component c =
  let n = String.length c in
  let rec find i best =
    if i + 1 >= n then best
    else if c.[i] = '_' && c.[i + 1] = '_' then find (i + 2) (Some (i + 2))
    else find (i + 1) best
  in
  match find 0 None with
  | Some i when i < n -> String.sub c i (n - i)
  | _ -> c

let collapse_name n =
  if String.contains n '(' then n
  else
    String.split_on_char '.' n
    |> List.map collapse_component
    |> String.concat "."

let norm2 p = collapse_name (Path.name p) |> fun n ->
  if String.starts_with ~prefix:"Stdlib." n then
    String.sub n 7 (String.length n - 7)
  else n

let split_dots s = String.split_on_char '.' s

let last_comp s =
  match List.rev (split_dots s) with c :: _ -> c | [] -> s

(* "A.B.C.f" -> "C.f": the fallback key used to resolve a callee whose
   path kept an alias prefix the summary table does not use. *)
let last2 s =
  match List.rev (split_dots s) with
  | f :: m :: _ -> m ^ "." ^ f
  | _ -> s

(* R1: ambient clocks. *)
let clock_idents = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

(* R1: environment reads.  A variable read deep in the library is a
   per-process knob no caller can see, which is how results come to
   depend on where they ran. *)
let env_idents = [ "Sys.getenv"; "Sys.getenv_opt" ]

(* R1: the global-state PRNG.  [Random.State.*] with an explicit seed is
   deterministic and allowed; everything else under [Random.] draws from
   ambient global state. *)
let is_global_random nm =
  (String.starts_with ~prefix:"Random." nm
   && not (String.starts_with ~prefix:"Random.State." nm))
  || nm = "Random.self_init"

(* R1: hash-layout-dependent iteration. *)
let hashtbl_iteration = [ "Hashtbl.fold"; "Hashtbl.iter"; "Hashtbl.hash" ]

(* R2: the deterministic fan-out entry points of lib/par. *)
let par_entries =
  [ "Par.parallel_for"; "Par.parallel_for_chunks"; "Par.parallel_reduce";
    "Par.parallel_reduce_chunks" ]

let is_par_entry nm = ends_with_any par_entries nm

(* R2: stdlib mutators whose first argument is the mutated structure. *)
let hashtbl_mutators =
  [ "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace" ]

let buffer_mutators =
  [ "Buffer.clear"; "Buffer.reset"; "Buffer.truncate" ]

let is_buffer_mutator nm =
  ends_with_any buffer_mutators nm
  || String.starts_with ~prefix:"Buffer.add_" nm
  || (match String.index_opt nm '.' with
      | Some _ -> String.ends_with ~suffix:".Buffer.add_channel" nm
      | None -> false)

(* R2: indexed writes — safe iff the index depends on the loop variable
   (or anything else bound inside the closure). *)
let array_setters =
  [ "Array.set"; "Array.unsafe_set"; "Float.Array.set"; "Float.Array.unsafe_set";
    "Bytes.set"; "Bytes.unsafe_set"; "Bigarray.Array1.set"; "Bigarray.Array2.set";
    "Bigarray.Array3.set"; "Bigarray.Genarray.set"; "Array1.set"; "Array2.set";
    "Array3.set"; "Genarray.set" ]

(* R2: a closure that takes a Mutex is assumed to guard its writes. *)
let mutex_idents = [ "Mutex.lock"; "Mutex.try_lock"; "Mutex.protect" ]

(* R4: by-name registry lookups (hash + mutex per call); the handle path
   (Obs.labeled_hist / Obs.observe_into) resolves the name once. *)
let obs_by_name =
  [ "Obs.count"; "Obs.gauge"; "Obs.observe"; "Obs.counter_value" ]

(* R6: labeled by-name lookups are worse — each call sorts and escapes
   the label list to rebuild the composed series key before the hash +
   mutex.  [Obs.labeled_hist] resolves all of that once. *)
let obs_labeled_by_name = [ "Obs.count_labeled"; "Obs.observe_labeled" ]

(* R5: Mat operations that allocate their result and have an in-place
   [_into] sibling taking a preallocated [~dst].  The suffix match is
   exact, so e.g. [Mat.matmul_into] itself never matches ["Mat.matmul"]. *)
let alloc_mat_ops =
  [ "Mat.matmul"; "Mat.matmul_nt"; "Mat.mv"; "Mat.sub"; "Mat.map";
    "Mat.copy" ]

(* R4: loop-running higher-order functions — a closure passed here runs
   once per element, so it counts as a loop body. *)
let loop_hofs =
  [ "List.iter"; "List.iteri"; "List.fold_left"; "List.fold_right"; "List.map";
    "List.mapi"; "List.concat_map"; "List.filter_map"; "Array.iter";
    "Array.iteri"; "Array.fold_left"; "Array.map"; "Array.mapi"; "Array.init";
    "Seq.iter"; "Seq.map"; "String.iter"; "String.iteri"; "Hashtbl.iter";
    "Hashtbl.fold"; "Queue.iter" ]

let is_loop_hof nm = ends_with_any loop_hofs nm || is_par_entry nm

(* ------------------------------------------------------------------ *)
(* Type tests                                                          *)
(* ------------------------------------------------------------------ *)

let is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Traversal state                                                     *)
(* ------------------------------------------------------------------ *)

type par_ctx = {
  locals : (string, unit) Hashtbl.t;
      (* Ident.unique_name of everything bound inside the closure: the
         loop parameter(s) and any let / match / fun / for binders.
         Anything not in here is captured from the enclosing scope. *)
  label : string; (* entry point name, for messages *)
}

let cur_policy = ref { det = false; err = false; obs = false; alloc = false }
let par_context : par_ctx option ref = ref None
let loop_depth = ref 0

let add_local ctx id = Hashtbl.replace ctx.locals (Ident.unique_name id) ()

let add_pattern_locals ctx pat =
  List.iter (add_local ctx) (Typedtree.pat_bound_idents pat)

(* Head identifier of an access path: [x], [x.f], [x.f.g] all answer [x];
   anything more complex answers [None] and is left alone (the linter
   only flags writes it can attribute to a definite captured binding). *)
let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e', _, _) -> head_path e'
  | _ -> None

let path_captured ctx = function
  | Path.Pident id -> not (Hashtbl.mem ctx.locals (Ident.unique_name id))
  | _ -> true (* dotted path: module-level state, by definition captured *)

let expr_captured ctx e =
  match head_path e with
  | Some p -> if path_captured ctx p then Some (Path.last p) else None
  | None -> None

(* Does [e] mention any binding local to the closure?  Used to accept
   captured-array writes whose index is derived from the loop variable. *)
let mentions_local ctx (e : Typedtree.expression) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.Typedtree.exp_desc with
           | Texp_ident (Path.Pident id, _, _)
             when Hashtbl.mem ctx.locals (Ident.unique_name id) ->
             found := true
           | _ -> ());
          Tast_iterator.default_iterator.expr sub ex);
    }
  in
  it.expr it e;
  !found

(* Mutex heuristic: if the closure body manipulates a Mutex anywhere, its
   writes are assumed to be lock-protected and R2 stands down for the
   whole closure.  Coarse, but locks inside deterministic fan-outs are
   rare enough that a human already reviews them. *)
let uses_mutex (e : Typedtree.expression) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.Typedtree.exp_desc with
           | Texp_ident (p, _, _) when ends_with_any mutex_idents (norm_path p)
             ->
             found := true
           | _ -> ());
          Tast_iterator.default_iterator.expr sub ex);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Rule bodies                                                         *)
(* ------------------------------------------------------------------ *)

let check_ident ~loc nm =
  if !cur_policy.det then begin
    if ends_with_any clock_idents nm then
      report ~loc ~rule:r_det
        (Printf.sprintf
           "ambient clock read '%s'; confine wall-clock access to lib/obs \
            (Obs.now_ns)" nm)
    else if ends_with_any env_idents nm then
      report ~loc ~rule:r_det
        (Printf.sprintf
           "environment read '%s'; take the setting as an argument from \
            bin/ instead" nm)
    else if is_global_random nm then
      report ~loc ~rule:r_det
        (Printf.sprintf
           "global-state PRNG '%s'; use Sider_rand.Rng (or Random.State) \
            with an explicit seed" nm)
    else if ends_with_any hashtbl_iteration nm then
      report ~loc ~rule:r_det
        (Printf.sprintf
           "'%s' depends on hash layout; iterate sorted keys or annotate an \
            order-independent reduction" nm)
  end;
  if !cur_policy.err && (nm = "failwith" || nm = "invalid_arg") then
    report ~loc ~rule:r_err
      (Printf.sprintf
         "bare '%s' in a numerical module; raise a structured \
          Sider_robust.Sider_error instead" nm);
  if !cur_policy.obs && !loop_depth > 0 && ends_with_any obs_by_name nm then
    report ~loc ~rule:r_obs
      (Printf.sprintf
         "by-name metric lookup '%s' inside a loop; preregister a handle \
          (Obs.labeled_hist / Obs.observe_into) outside the loop" nm);
  if
    !cur_policy.obs && !loop_depth > 0
    && ends_with_any obs_labeled_by_name nm
  then
    report ~loc ~rule:r_obs
      (Printf.sprintf
         "by-name labeled metric lookup '%s' inside a loop; preregister \
          a labeled handle (Obs.labeled_hist / Obs.observe_into) outside \
          the loop" nm);
  if !cur_policy.alloc && !loop_depth > 0 && ends_with_any alloc_mat_ops nm
  then
    report ~loc ~rule:r_alloc
      (Printf.sprintf
         "allocating '%s' inside a loop in a hot numerical module; write \
          into a preallocated buffer with its '_into' sibling" nm)

(* R2 write checks, active only inside a Par closure. *)
let check_par_write ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    let nm = norm_path p in
    let explicit = List.filter_map (fun (_, a) -> a) args in
    let flag_first what =
      match explicit with
      | first :: _ -> (
        match expr_captured ctx first with
        | Some name ->
          report ~loc:e.exp_loc ~rule:r_dom
            (Printf.sprintf
               "%s '%s' captured by a %s closure; use Atomic, a Mutex, \
                Domain.DLS, or per-index disjoint writes" what name ctx.label)
        | None -> ())
      | [] -> ()
    in
    if nm = ":=" then flag_first "assignment to ref"
    else if nm = "incr" || nm = "decr" then flag_first "increment of ref"
    else if ends_with_any hashtbl_mutators nm then flag_first "mutation of Hashtbl"
    else if is_buffer_mutator nm then flag_first "mutation of Buffer"
    else if ends_with_any array_setters nm then begin
      (* a.(i) <- v: safe when the index depends on something bound in
         the closure (the loop variable or a derivation of it). *)
      match explicit with
      | arr :: rest when List.length rest >= 2 -> (
        let indices = List.filteri (fun i _ -> i < List.length rest - 1) rest in
        match expr_captured ctx arr with
        | Some name when not (List.exists (mentions_local ctx) indices) ->
          report ~loc:e.exp_loc ~rule:r_dom
            (Printf.sprintf
               "write to captured array '%s' at a loop-invariant index \
                inside a %s closure; every iteration races on the same cell"
               name ctx.label)
        | _ -> ())
      | _ -> ()
    end
  | Texp_setfield (target, _, lbl, _) -> (
    match expr_captured ctx target with
    | Some name ->
      report ~loc:e.exp_loc ~rule:r_dom
        (Printf.sprintf
           "mutation of field '%s' of captured '%s' inside a %s closure; \
            use Atomic, a Mutex, Domain.DLS, or per-index disjoint state"
           lbl.lbl_name name ctx.label)
    | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The iterator                                                        *)
(* ------------------------------------------------------------------ *)

(* Peel the curried [fun a -> fun b -> body] spine of a closure literal,
   registering every parameter as closure-local, and answer the body. *)
let rec enter_function_spine ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { param; cases; _ } ->
    add_local ctx param;
    List.iter (fun c -> add_pattern_locals ctx c.Typedtree.c_lhs) cases;
    (match cases with
     | [ { c_lhs = _; c_guard = None; c_rhs; _ } ] -> enter_function_spine ctx c_rhs
     | _ -> ())
  | _ -> ()

let is_function_literal (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* R11: every value reference, keyed "Module.value" after dune's
   mangling is collapsed ("Sider_linalg__Mat.outer" and
   "Sider_linalg.Mat.outer" both read "Mat.outer"), with the referring
   unit and its source file.  No file renames a lib/ module (aliases
   such as [module Obs = Sider_obs.Obs] keep the name), so the key sees
   every caller. *)
let cur_unit = ref ""

let references : (string, string * string) Hashtbl.t = Hashtbl.create 4096

let record_reference p =
  let key = last2 (norm2 p) in
  if String.contains key '.' then
    Hashtbl.add references key (!cur_unit, !cur_file)

let visit_expr sub (e : Typedtree.expression) =
  let allows = allows_of_attributes e.exp_attributes in
  with_allows allows @@ fun () ->
  (* Identifier-level rules (R1 / R3a / R4). *)
  (match e.exp_desc with
   | Texp_ident (p, _, _) ->
     record_reference p;
     check_ident ~loc:e.exp_loc (norm_path p)
   | _ -> ());
  (* R3a: assert false. *)
  (match e.exp_desc with
   | Texp_assert ({ exp_desc = Texp_construct (_, cd, []); _ }, _)
     when !cur_policy.err && cd.cstr_name = "false" ->
     report ~loc:e.exp_loc ~rule:r_err
       "bare 'assert false' in a numerical module; raise a structured \
        Sider_robust.Sider_error instead"
   | _ -> ());
  (* R3b: polymorphic =/<> on floats. *)
  (match e.exp_desc with
   | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
     when !cur_policy.err ->
     let nm = norm_path p in
     if nm = "=" || nm = "<>" then
       let floaty =
         List.exists
           (function
             | _, Some (a : Typedtree.expression) -> is_float_type a.exp_type
             | _, None -> false)
           args
       in
       if floaty then
         report ~loc:e.exp_loc ~rule:r_flt
           (Printf.sprintf
              "polymorphic '%s' on float operands (NaN hazard); use \
               Float.equal or an explicit tolerance" nm)
   | _ -> ());
  (* R2: writes inside a Par closure. *)
  (match !par_context with
   | Some ctx ->
     (* Track closure-local binders before descending, so scoping is an
        over-approximation (fine for suppressing false positives). *)
     (match e.exp_desc with
      | Texp_let (_, vbs, _) ->
        List.iter (fun vb -> add_pattern_locals ctx vb.Typedtree.vb_pat) vbs
      | Texp_match (_, cases, _) ->
        List.iter (fun c -> add_pattern_locals ctx c.Typedtree.c_lhs) cases
      | Texp_try (_, cases) ->
        List.iter (fun c -> add_pattern_locals ctx c.Typedtree.c_lhs) cases
      | Texp_function { param; cases; _ } ->
        add_local ctx param;
        List.iter (fun c -> add_pattern_locals ctx c.Typedtree.c_lhs) cases
      | Texp_for (id, _, _, _, _, _) -> add_local ctx id
      | _ -> ());
     check_par_write ctx e
   | None -> ());
  (* Structured descent for loop context and Par-closure entry. *)
  match e.exp_desc with
  | Texp_while (cond, body) ->
    sub.Tast_iterator.expr sub cond;
    incr loop_depth;
    Fun.protect ~finally:(fun () -> decr loop_depth) (fun () ->
        sub.Tast_iterator.expr sub body)
  | Texp_for (_, _, lo, hi, _, body) ->
    sub.Tast_iterator.expr sub lo;
    sub.Tast_iterator.expr sub hi;
    incr loop_depth;
    Fun.protect ~finally:(fun () -> decr loop_depth) (fun () ->
        sub.Tast_iterator.expr sub body)
  | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
    when is_par_entry (norm_path p) ->
    (* Each function-literal argument is a parallel body: lint it with a
       fresh capture context (and as a loop body for R4). *)
    sub.Tast_iterator.expr sub fn;
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some a when is_function_literal a ->
          let ctx =
            { locals = Hashtbl.create 32; label = Path.last p }
          in
          enter_function_spine ctx a;
          if not (uses_mutex a) then begin
            let saved = !par_context in
            par_context := Some ctx;
            incr loop_depth;
            Fun.protect
              ~finally:(fun () ->
                par_context := saved;
                decr loop_depth)
              (fun () -> sub.Tast_iterator.expr sub a)
          end
          else begin
            (* Mutex-guarded: still visit for the other rules. *)
            incr loop_depth;
            Fun.protect
              ~finally:(fun () -> decr loop_depth)
              (fun () -> sub.Tast_iterator.expr sub a)
          end
        | Some a -> sub.Tast_iterator.expr sub a
        | None -> ())
      args
  | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
    when is_loop_hof (norm_path p) ->
    sub.Tast_iterator.expr sub fn;
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some a when is_function_literal a ->
          incr loop_depth;
          Fun.protect
            ~finally:(fun () -> decr loop_depth)
            (fun () -> sub.Tast_iterator.expr sub a)
        | Some a -> sub.Tast_iterator.expr sub a
        | None -> ())
      args
  | _ -> Tast_iterator.default_iterator.expr sub e

let visit_value_binding sub (vb : Typedtree.value_binding) =
  let allows = allows_of_attributes vb.vb_attributes in
  with_allows allows @@ fun () ->
  Tast_iterator.default_iterator.value_binding sub vb

let linter =
  {
    Tast_iterator.default_iterator with
    expr = visit_expr;
    value_binding = visit_value_binding;
  }

(* ================================================================== *)
(* v2: interprocedural summaries (R7 lock-order, R8 lock-safety,       *)
(* R9 fd-leak, R10 blocking-under-lock)                                *)
(* ================================================================== *)

(* Phase 1 builds one summary per function (plus one per closure literal
   passed as a call argument) from the typed AST: which locks it
   acquires, which calls it makes and with which locks locally held,
   which file descriptors it opens/closes/escapes, and whether it can
   raise.  Phase 2 (below) closes the summaries over the call graph. *)

(* A lock is named by its acquisition-site derivation — module-level
   idents become "Module.ident", record fields "TypeModule.type.field",
   function locals "Module.fn.ident" — optionally re-labeled by an
   explicit [@sider.lock "name"] annotation.  A mutex received as a
   function parameter stays symbolic (L_param) and is bound to a
   concrete name per call site during the phase-2 traversal. *)
type lock_ref = L_named of string | L_param of int

type callee = C_param of int | C_path of string

(* One raw (not wrapper/Fun.protect-guarded) Mutex.lock.  Taints are
   may-raise sources observed while the lock is held raw; dep taints
   name callees whose may-raise status is only known after phase 2. *)
type racq = {
  r_derived : string;
  r_ref : lock_ref;
  r_loc : string * int;
  mutable r_protected : bool;
  mutable r_unlocked : bool;
  mutable r_taints : (string * int * string) list;
  mutable r_deps : (string * (string * int)) list;
  r_allowed : string list;
}

(* One tracked resource open (socket / openfile / out_channel / pipe). *)
type fdres = {
  f_what : string;
  f_loc : string * int;
  f_file : string;
  mutable f_closed : bool;
  mutable f_protected : bool; (* close sits in Fun.protect ~finally or a handler *)
  mutable f_escaped : bool;   (* stored or ownership-transferred *)
  mutable f_taints : (string * int * string) list;
  mutable f_deps : (string * (string * int)) list;
  f_allowed : string list;
}

type ev =
  | E_acquire of {
      lock : lock_ref;
      blocking : bool; (* false for Mutex.try_lock *)
      loc : string * int;
      held : lock_ref list; (* locks held locally when acquiring *)
      allowed : string list;
    }
  | E_call of {
      callee : callee;
      loc : string * int;
      held : lock_ref list;
      closures : (int * string) list; (* arg position -> anon summary key *)
      lock_args : (int * lock_ref) list; (* arg position -> mutex argument *)
      lock_ann : string option; (* [@sider.lock] at a wrapper call site *)
      allowed : string list;
    }

type summary = {
  sm_key : string;
  sm_file : string;
  mutable sm_events : ev list; (* reversed while building *)
  mutable sm_raws : racq list;
  mutable sm_fds : fdres list;
  mutable sm_direct_raise : bool;
  mutable sm_raise_deps : string list;
}

let summaries : (string, summary) Hashtbl.t = Hashtbl.create 512

(* derived lock name -> ([@sider.lock] display name, first site). *)
let lock_names : (string, string * (string * int)) Hashtbl.t =
  Hashtbl.create 64

(* Per-file phase-1 state. *)
let cur_module = ref ""
let anon_n = ref 0
let catch_depth = ref 0 (* inside a catch-all try/match-exception body *)
let cleanup_depth = ref 0 (* inside an exception handler (close = protected) *)

let tbl_local_fns : (string, string) Hashtbl.t = Hashtbl.create 64
let tbl_local_locks : (string, string) Hashtbl.t = Hashtbl.create 16
let tbl_module_vals : (string, string) Hashtbl.t = Hashtbl.create 64
let tbl_fds : (string, fdres) Hashtbl.t = Hashtbl.create 16

type sctx = {
  x_sum : summary;
  x_params : string list; (* Ident.unique_name of the curried spine, in order *)
  mutable x_held : lock_ref list;
  mutable x_raw : racq list; (* innermost first *)
  mutable x_fds : fdres list; (* opens owned by this summary *)
}

let uid id = Ident.unique_name id

let place (loc : Location.t) =
  let pos = loc.Location.loc_start in
  let file =
    if pos.Lexing.pos_fname <> "" then pos.Lexing.pos_fname else !cur_file
  in
  (file, pos.Lexing.pos_lnum)

(* Directories where every lock acquisition must carry [@sider.lock]. *)
let must_annotate_dirs = [ "lib/serve/"; "lib/obs/"; "lib/par/" ]

let must_annotate file =
  !fixture_mode || starts_with_any must_annotate_dirs file

(* R9 is strict (exception-path analysis) where leaks wedge production
   code; test/bench code only gets the leak check. *)
let fd_strict file =
  !fixture_mode
  || starts_with_any [ "lib/"; "bin/" ] file

let raise_fns =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    "Sider_error.raise_" ]

let fd_open_fns =
  [ "Unix.socket"; "Unix.openfile"; "open_out"; "open_out_bin";
    "open_out_gen"; "open_in"; "open_in_bin" ]

(* Borrowing calls: passing the fd here neither closes it nor transfers
   ownership.  Anything else the fd is passed to is assumed to take
   ownership (the documented transfer convention, DESIGN.md section 10). *)
let fd_use_fns =
  [ "Unix.read"; "Unix.write"; "Unix.write_substring"; "Unix.single_write";
    "Unix.select"; "Unix.setsockopt"; "Unix.bind"; "Unix.listen";
    "Unix.connect"; "Unix.getsockname"; "Unix.shutdown"; "Unix.set_nonblock";
    "Unix.fsync"; "Unix.ftruncate"; "Unix.lseek"; "Unix.accept";
    "output_string"; "output_char"; "output"; "output_bytes"; "flush";
    "output_value"; "seek_out"; "pos_out"; "set_binary_mode_out";
    "input"; "really_input"; "really_input_string"; "input_line"; "seek_in" ]

let is_close_fn nm =
  let c = last_comp nm in
  String.length c >= 5
  &&
  (let rec has i =
     i + 5 <= String.length c && (String.sub c i 5 = "close" || has (i + 1))
   in
   has 0)

(* R10: primitives that block (or are the paper's expensive solve) and
   must not be reachable with reg_lock held. *)
let blocking_prims =
  [ "Unix.fsync"; "Unix.read"; "Unix.write"; "Unix.write_substring";
    "Unix.single_write"; "Unix.select"; "Unix.accept"; "Unix.connect";
    "Unix.sleepf"; "Unix.sleep"; "Thread.delay"; "Condition.wait";
    "Solver.solve" ]

let is_blocking_prim nm = ends_with_any blocking_prims nm

(* Externals assumed not to raise for R8/R9 taint purposes.  Array
   get/set and div/mod are deliberately whitelisted: bounds/zero faults
   inside a critical section are logic bugs the tests catch, and
   flagging them would drown the real exception-path hazards (Queue.pop,
   Hashtbl.find, channel IO ... stay tainting). *)
let benign_exact =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "+"; "-"; "*"; "/"; "mod";
    "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "+."; "-."; "*."; "/."; "**";
    "@"; "^"; "&&"; "||"; "not"; "~-"; "~-."; "~+"; "abs"; "min"; "max";
    "compare"; "ignore"; "fst"; "snd"; "ref"; "!"; ":="; "incr"; "decr";
    "succ"; "pred"; "float_of_int"; "int_of_float"; "string_of_int";
    "string_of_float"; "string_of_bool"; "truncate"; "ceil"; "floor";
    "sqrt"; "exp"; "log"; "sin"; "cos"; "abs_float"; "infinity"; "nan" ]

let benign_suffixes =
  [ "Mutex.lock"; "Mutex.unlock"; "Mutex.try_lock"; "Mutex.create";
    "Condition.wait"; "Condition.signal"; "Condition.broadcast";
    "Condition.create"; "Queue.push"; "Queue.add"; "Queue.length";
    "Queue.is_empty"; "Queue.clear"; "Queue.create"; "Hashtbl.find_opt";
    "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.add"; "Hashtbl.length";
    "Hashtbl.fold"; "Hashtbl.iter"; "Hashtbl.mem"; "Hashtbl.reset";
    "Hashtbl.create"; "List.mem"; "List.length"; "List.rev"; "List.filter";
    "List.fold_left"; "List.iter"; "List.map"; "List.rev_map"; "List.exists";
    "List.for_all"; "List.sort"; "List.append"; "List.partition";
    "List.filter_map"; "List.concat"; "List.cons"; "List.rev_append";
    "List.sort_uniq"; "List.assoc_opt"; "List.find_opt"; "List.find_map";
    "List.mapi"; "List.iteri"; "List.concat_map"; "Array.get"; "Array.set";
    "Array.unsafe_get"; "Array.unsafe_set"; "Array.length"; "Array.iter";
    "Array.iteri"; "Array.map"; "Array.mapi"; "Array.fold_left";
    "Array.make"; "Array.init"; "Array.to_list"; "Array.of_list";
    "Array.copy"; "Bytes.length"; "String.length"; "String.concat";
    "String.equal"; "String.compare"; "String.make"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.contents"; "Buffer.create"; "Buffer.length";
    "Buffer.clear"; "Buffer.reset"; "Option.map"; "Option.iter";
    "Option.is_some"; "Option.is_none"; "Option.value"; "Option.bind";
    "Option.fold"; "Printf.sprintf"; "Format.asprintf"; "Unix.gettimeofday";
    "Sys.time"; "Thread.self"; "Thread.id"; "Thread.yield"; "Int64.to_float";
    "Int64.of_float"; "Int64.sub"; "Int64.add"; "Int64.mul"; "Int64.of_int";
    "Int64.to_int"; "Int64.div"; "Int64.compare"; "Int64.equal";
    "Float.equal"; "Float.compare";
    "Float.of_int"; "Float.to_int"; "Float.min"; "Float.max"; "Float.abs";
    "Float.is_nan"; "Filename.concat"; "Filename.basename";
    "Filename.check_suffix"; "close_out_noerr"; "close_in_noerr" ]

let benign_call nm =
  List.mem nm benign_exact
  || ends_with_any benign_suffixes nm
  || String.starts_with ~prefix:"Atomic." nm
  || (match String.index_opt nm '.' with
      | Some _ -> String.ends_with ~suffix:"Atomic.get" nm
                  || String.ends_with ~suffix:"Atomic.set" nm
      | None -> false)

let is_mutex_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> last2 (norm2 p) = "Mutex.t"
  | _ -> false

let rec pat_is_catch_all (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (q, _, _) -> pat_is_catch_all q
  | Tpat_or (a, b, _) -> pat_is_catch_all a || pat_is_catch_all b
  | _ -> false

let new_anon ctx =
  incr anon_n;
  Printf.sprintf "%s.anon%d" ctx.x_sum.sm_key !anon_n

let get_summary key file =
  match Hashtbl.find_opt summaries key with
  | Some s -> s
  | None ->
    let s =
      { sm_key = key; sm_file = file; sm_events = []; sm_raws = [];
        sm_fds = []; sm_direct_raise = false; sm_raise_deps = [] }
    in
    Hashtbl.replace summaries key s;
    s

let push_ev ctx ev = ctx.x_sum.sm_events <- ev :: ctx.x_sum.sm_events

(* Register the [@sider.lock] display name for a derived identity;
   conflicting annotations for the same mutex are findings. *)
let register_lock_name ~loc derived = function
  | None -> ()
  | Some name -> (
    match Hashtbl.find_opt lock_names derived with
    | Some (prev, (pf, pl)) when prev <> name ->
      report ~loc ~rule:r_lock
        (Printf.sprintf
           "[@sider.lock %S] conflicts with %S for the same mutex (first \
            annotated at %s:%d)" name prev pf pl)
    | Some _ -> ()
    | None -> Hashtbl.replace lock_names derived (name, place loc))

let display_lock derived =
  match Hashtbl.find_opt lock_names derived with
  | Some (name, _) -> name
  | None -> derived

(* The watched lock for R10: the registry admission lock, by annotation
   or by derivation. *)
let is_watched derived =
  last_comp derived = "reg_lock" || display_lock derived = "reg_lock"

(* Derive a lock identity from the mutex expression at an acquisition
   or wrapper-call site. *)
let derive_lock ctx (m : Typedtree.expression) =
  match m.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    let u = uid id in
    let rec idx i = function
      | [] -> None
      | p :: _ when p = u -> Some i
      | _ :: tl -> idx (i + 1) tl
    in
    match idx 0 ctx.x_params with
    | Some i -> (L_param i, Printf.sprintf ":param%d" i)
    | None -> (
      match Hashtbl.find_opt tbl_local_locks u with
      | Some d -> (L_named d, d)
      | None -> (
        match Hashtbl.find_opt tbl_module_vals u with
        | Some k -> (L_named k, k)
        | None ->
          let d = ctx.x_sum.sm_key ^ "." ^ Ident.name id in
          (L_named d, d))))
  | Texp_ident (p, _, _) ->
    (* last2 so the same module-level mutex derives identically from
       inside its module ("Obs.registry_m") and across the library
       wrapper ("Sider_obs.Obs.registry_m"). *)
    let d = last2 (norm2 p) in
    (L_named d, d)
  | Texp_field (_, _, lbl) ->
    let tn =
      match Types.get_desc lbl.Types.lbl_res with
      | Types.Tconstr (p, _, _) -> norm2 p
      | _ -> "?"
    in
    let d = last2 (tn ^ "." ^ lbl.Types.lbl_name) in
    (L_named d, d)
  | _ ->
    let f, l = place m.exp_loc in
    let d = Printf.sprintf "%s:%d" f l in
    (L_named d, d)

let remove_first eq l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: tl when eq x -> List.rev_append acc tl
    | x :: tl -> go (x :: acc) tl
  in
  go [] l

(* Record a may-raise source against the enclosing function and every
   lock held raw / fd open at this point (unless a catch-all handler
   encloses us). *)
let taint_raise ctx (loc : Location.t) desc =
  if !catch_depth = 0 then begin
    ctx.x_sum.sm_direct_raise <- true;
    let f, l = place loc in
    List.iter
      (fun r -> if not r.r_protected then r.r_taints <- (f, l, desc) :: r.r_taints)
      ctx.x_raw;
    List.iter
      (fun fd ->
        if (not fd.f_closed) && not fd.f_escaped then
          fd.f_taints <- (f, l, desc) :: fd.f_taints)
      ctx.x_fds
  end

let taint_dep ctx (loc : Location.t) name =
  if !catch_depth = 0 then begin
    if not (List.mem name ctx.x_sum.sm_raise_deps) then
      ctx.x_sum.sm_raise_deps <- name :: ctx.x_sum.sm_raise_deps;
    let p = place loc in
    List.iter
      (fun r -> if not r.r_protected then r.r_deps <- (name, p) :: r.r_deps)
      ctx.x_raw;
    List.iter
      (fun fd ->
        if (not fd.f_closed) && not fd.f_escaped then
          fd.f_deps <- (name, p) :: fd.f_deps)
      ctx.x_fds
  end

let dep_name = function C_param _ -> "?param" | C_path k -> k

let classify_callee ctx p nm =
  match p with
  | Path.Pident id -> (
    let u = uid id in
    let rec idx i = function
      | [] -> None
      | q :: _ when q = u -> Some i
      | _ :: tl -> idx (i + 1) tl
    in
    match idx 0 ctx.x_params with
    | Some i -> C_param i
    | None -> (
      match Hashtbl.find_opt tbl_local_fns u with
      | Some k -> C_path k
      | None -> (
        match Hashtbl.find_opt tbl_module_vals u with
        | Some k -> C_path k
        | None -> C_path nm)))
  | _ -> C_path nm

(* Flatten `f x @@ y` / `y |> f x` / curried `(f x) y` spines into
   (head, args), collecting any sider.* attributes stranded on the inner
   partial-application nodes (where `f a [@sider.lock "n"] @@ thunk`
   parses them to).  The typechecker eliminates `@@`/`|>` with a
   syntactic function argument into a nested application, so the
   Texp_apply head case is the one that fires most. *)
let rec flatten_app (fn : Typedtree.expression) args attrs =
  match fn.exp_desc with
  | Texp_apply (fn2, args2) ->
    flatten_app fn2 (args2 @ args) (fn.exp_attributes @ attrs)
  | Texp_ident (p, _, _) when ends_with_any [ "@@" ] (norm2 p) -> (
    match args with
    | [ (_, Some f); (_, Some x) ] -> (
      match f.Typedtree.exp_desc with
      | Texp_apply (fn2, args2) ->
        flatten_app fn2
          (args2 @ [ (Asttypes.Nolabel, Some x) ])
          (f.exp_attributes @ attrs)
      | _ -> (f, [ (Asttypes.Nolabel, Some x) ], f.exp_attributes @ attrs))
    | _ -> (fn, args, attrs))
  | Texp_ident (p, _, _) when ends_with_any [ "|>" ] (norm2 p) -> (
    match args with
    | [ (_, Some x); (_, Some f) ] -> (
      match f.Typedtree.exp_desc with
      | Texp_apply (fn2, args2) ->
        flatten_app fn2
          (args2 @ [ (Asttypes.Nolabel, Some x) ])
          (f.exp_attributes @ attrs)
      | _ -> (f, [ (Asttypes.Nolabel, Some x) ], f.exp_attributes @ attrs))
    | _ -> (fn, args, attrs))
  | _ -> (fn, args, attrs)

let is_lambda (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let first_explicit args = List.find_map (fun (_, a) -> a) args

(* ---------------- the phase-1 walker ---------------- *)

let rec s_expr ctx (e : Typedtree.expression) =
  let allows = silent_allows e.exp_attributes in
  with_allows allows @@ fun () ->
  match e.exp_desc with
  | Texp_apply (fn, args) -> s_apply ctx e fn args
  | Texp_let (_, vbs, body) ->
    List.iter (s_local_vb ctx) vbs;
    s_expr ctx body
  | Texp_sequence (a, b) ->
    s_expr ctx a;
    s_expr ctx b
  | Texp_ifthenelse (c, t, f) ->
    s_expr ctx c;
    s_expr ctx t;
    Option.iter (s_expr ctx) f
  | Texp_match (scrut, cases, _) ->
    let catch_all =
      List.exists
        (fun c ->
          match Typedtree.split_pattern c.Typedtree.c_lhs with
          | _, Some ep -> pat_is_catch_all ep
          | _ -> false)
        cases
    in
    if catch_all then incr catch_depth;
    s_expr ctx scrut;
    if catch_all then decr catch_depth;
    List.iter
      (fun c ->
        Option.iter (s_expr ctx) c.Typedtree.c_guard;
        s_expr ctx c.Typedtree.c_rhs)
      cases
  | Texp_try (body, cases) ->
    let catch_all =
      List.exists (fun c -> pat_is_catch_all c.Typedtree.c_lhs) cases
    in
    if catch_all then incr catch_depth;
    s_expr ctx body;
    if catch_all then decr catch_depth;
    incr cleanup_depth;
    List.iter (fun c -> s_expr ctx c.Typedtree.c_rhs) cases;
    decr cleanup_depth
  | Texp_function { cases; _ } ->
    (* A lambda not at a call-argument position (returned / stored):
       approximate by walking its body in the current context. *)
    List.iter (fun c -> s_expr ctx c.Typedtree.c_rhs) cases
  | Texp_construct (_, _, args) ->
    List.iter (mark_escapes ctx) args;
    List.iter (s_expr ctx) args
  | Texp_record { fields; extended_expression; _ } ->
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, ex) ->
          mark_escapes ctx ex;
          s_expr ctx ex
        | Typedtree.Kept _ -> ())
      fields;
    Option.iter (s_expr ctx) extended_expression
  | Texp_setfield (tgt, _, _, v) ->
    s_expr ctx tgt;
    mark_escapes ctx v;
    s_expr ctx v
  | Texp_tuple es | Texp_array es ->
    List.iter (mark_escapes ctx) es;
    List.iter (s_expr ctx) es
  | Texp_variant (_, eo) ->
    Option.iter
      (fun x ->
        mark_escapes ctx x;
        s_expr ctx x)
      eo
  | Texp_assert (cond, _) ->
    (match cond.Typedtree.exp_desc with
     | Texp_construct (_, cd, []) when cd.Types.cstr_name = "false" ->
       taint_raise ctx e.exp_loc "assert false"
     | _ -> taint_raise ctx e.exp_loc "assert");
    s_expr ctx cond
  | Texp_while (c, b) ->
    s_expr ctx c;
    s_expr ctx b
  | Texp_for (_, _, lo, hi, _, b) ->
    s_expr ctx lo;
    s_expr ctx hi;
    s_expr ctx b
  | Texp_field (b, _, _) -> s_expr ctx b
  | Texp_ident _ | Texp_constant _ -> ()
  | _ ->
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ e' -> s_expr ctx e');
      }
    in
    Tast_iterator.default_iterator.expr it e

(* Mark every tracked fd mentioned inside [ex] as escaped: it is being
   stored into a record/ref/constructor/tuple, which transfers ownership
   to the stored-into structure. *)
and mark_escapes _ctx (ex : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e' ->
          (match e'.Typedtree.exp_desc with
           | Texp_ident (Path.Pident id, _, _) -> (
             match Hashtbl.find_opt tbl_fds (uid id) with
             | Some fd -> fd.f_escaped <- true
             | None -> ())
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e');
    }
  in
  it.expr it ex

and s_apply ctx e fn args =
  let head, args, extra_attrs = flatten_app fn args fn.Typedtree.exp_attributes in
  match head.Typedtree.exp_desc with
  | Texp_ident (p, _, _) ->
    let nm = norm2 p in
    if ends_with_any [ "Mutex.lock" ] nm then
      s_lock ctx e extra_attrs ~blocking:true args
    else if ends_with_any [ "Mutex.try_lock" ] nm then
      s_lock ctx e extra_attrs ~blocking:false args
    else if ends_with_any [ "Mutex.unlock" ] nm then s_unlock ctx args
    else if ends_with_any [ "Fun.protect" ] nm then s_protect ctx args
    else if ends_with_any [ "Mutex.protect" ] nm then
      s_mutex_protect ctx e extra_attrs args
    else if ends_with_any raise_fns nm then begin
      List.iter (fun (_, a) -> Option.iter (s_expr ctx) a) args;
      taint_raise ctx e.exp_loc (Printf.sprintf "'%s'" nm)
    end
    else s_call ctx e nm p extra_attrs args
  | _ ->
    s_expr ctx head;
    List.iter
      (fun (_, a) ->
        Option.iter
          (fun x ->
            mark_escapes ctx x;
            s_expr ctx x)
          a)
      args

and s_lock ctx e extra_attrs ~blocking args =
  match first_explicit args with
  | None -> ()
  | Some m ->
    s_expr ctx m;
    let lref, derived = derive_lock ctx m in
    let ann =
      lock_annotation (e.exp_attributes @ extra_attrs @ m.exp_attributes)
    in
    register_lock_name ~loc:e.exp_loc derived ann;
    (match (ann, lref) with
     | None, L_param _ -> () (* wrapper bodies: named at the call site *)
     | None, L_named _ when must_annotate ctx.x_sum.sm_file ->
       report ~loc:e.exp_loc ~rule:r_lock
         (Printf.sprintf
            "lock acquisition of '%s' lacks a [@sider.lock \"name\"] \
             annotation" derived)
     | _ -> ());
    push_ev ctx
      (E_acquire
         { lock = lref; blocking; loc = place e.exp_loc; held = ctx.x_held;
           allowed = cur_allowed () });
    let r =
      { r_derived = derived; r_ref = lref; r_loc = place e.exp_loc;
        r_protected = false; r_unlocked = false; r_taints = []; r_deps = [];
        r_allowed = cur_allowed () }
    in
    ctx.x_sum.sm_raws <- r :: ctx.x_sum.sm_raws;
    ctx.x_raw <- r :: ctx.x_raw;
    ctx.x_held <- lref :: ctx.x_held

and s_unlock ctx args =
  match first_explicit args with
  | None -> ()
  | Some m ->
    s_expr ctx m;
    let _, derived = derive_lock ctx m in
    (match List.find_opt (fun r -> r.r_derived = derived) ctx.x_raw with
     | Some r ->
       r.r_unlocked <- true;
       ctx.x_raw <- remove_first (fun x -> x == r) ctx.x_raw;
       ctx.x_held <- remove_first (fun l -> l = r.r_ref) ctx.x_held
     | None -> ())

(* Fun.protect ~finally:F thunk: pre-scan F for unlocks (which make the
   enclosing raw acquisitions exception-safe) and fd closes (which make
   the close exception-safe), then walk the thunk with the protected
   locks still held, then release them. *)
and s_protect ctx args =
  let finally =
    List.find_map
      (fun (lbl, a) ->
        match lbl with Asttypes.Labelled "finally" -> a | _ -> None)
      args
  in
  let thunk =
    List.fold_left
      (fun acc (lbl, a) ->
        match (lbl, a) with Asttypes.Nolabel, Some x -> Some x | _ -> acc)
      None args
  in
  let protected = ref [] in
  (match finally with
   | Some ({ exp_desc = Texp_function _; _ } as f) ->
     prescan_finally ctx protected f
   | Some other -> s_expr ctx other
   | None -> ());
  (match thunk with
   | Some ({ exp_desc = Texp_function _; _ } as t) -> walk_lambda_inline ctx t
   | Some ({ exp_desc = Texp_ident (p, _, _); _ } as t) ->
     let callee = classify_callee ctx p (norm2 p) in
     push_ev ctx
       (E_call
          { callee; loc = place t.exp_loc; held = ctx.x_held; closures = [];
            lock_args = []; lock_ann = None; allowed = cur_allowed () });
     taint_dep ctx t.exp_loc (dep_name callee)
   | Some t -> s_expr ctx t
   | None -> ());
  List.iter
    (fun lref -> ctx.x_held <- remove_first (fun l -> l = lref) ctx.x_held)
    !protected

and prescan_finally ctx protected (f : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e' ->
          (match e'.Typedtree.exp_desc with
           | Texp_apply (fn, args) -> (
             let head, args, _ = flatten_app fn args [] in
             match head.Typedtree.exp_desc with
             | Texp_ident (p, _, _) -> (
               let nm = norm2 p in
               if ends_with_any [ "Mutex.unlock" ] nm then begin
                 match first_explicit args with
                 | Some m -> (
                   let _, derived = derive_lock ctx m in
                   match
                     List.find_opt (fun r -> r.r_derived = derived) ctx.x_raw
                   with
                   | Some r ->
                     r.r_protected <- true;
                     r.r_unlocked <- true;
                     ctx.x_raw <- remove_first (fun x -> x == r) ctx.x_raw;
                     protected := r.r_ref :: !protected
                   | None -> ())
                 | None -> ()
               end
               else if is_close_fn nm then
                 List.iter
                   (fun (_, a) ->
                     match a with
                     | Some { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> (
                       match Hashtbl.find_opt tbl_fds (uid id) with
                       | Some fd ->
                         fd.f_closed <- true;
                         fd.f_protected <- true
                       | None -> ())
                     | _ -> ())
                   args)
             | _ -> ())
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e');
    }
  in
  it.expr it f

and s_mutex_protect ctx e extra_attrs args =
  match args with
  | (_, Some m) :: rest ->
    s_expr ctx m;
    let lref, derived = derive_lock ctx m in
    let ann =
      lock_annotation (e.exp_attributes @ extra_attrs @ m.exp_attributes)
    in
    register_lock_name ~loc:e.exp_loc derived ann;
    (match (ann, lref) with
     | None, L_named _ when must_annotate ctx.x_sum.sm_file ->
       report ~loc:e.exp_loc ~rule:r_lock
         (Printf.sprintf
            "lock acquisition of '%s' lacks a [@sider.lock \"name\"] \
             annotation" derived)
     | _ -> ());
    push_ev ctx
      (E_acquire
         { lock = lref; blocking = true; loc = place e.exp_loc;
           held = ctx.x_held; allowed = cur_allowed () });
    ctx.x_held <- lref :: ctx.x_held;
    (match first_explicit rest with
     | Some ({ exp_desc = Texp_function _; _ } as f) -> walk_lambda_inline ctx f
     | Some ({ exp_desc = Texp_ident (p, _, _); _ } as f) ->
       let callee = classify_callee ctx p (norm2 p) in
       push_ev ctx
         (E_call
            { callee; loc = place f.exp_loc; held = ctx.x_held; closures = [];
              lock_args = []; lock_ann = None; allowed = cur_allowed () });
       taint_dep ctx f.exp_loc (dep_name callee)
     | Some f -> s_expr ctx f
     | None -> ());
    ctx.x_held <- remove_first (fun l -> l = lref) ctx.x_held
  | _ -> ()

and walk_lambda_inline ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    walk_lambda_inline ctx c_rhs
  | Texp_function { cases; _ } ->
    List.iter (fun c -> s_expr ctx c.Typedtree.c_rhs) cases
  | _ -> s_expr ctx e

and s_call ctx e nm p extra_attrs args =
  let callee = classify_callee ctx p nm in
  let closures = ref [] in
  let lock_args = ref [] in
  let lock_ann = ref (lock_annotation (e.exp_attributes @ extra_attrs)) in
  List.iteri
    (fun i (_, argo) ->
      match argo with
      | None -> ()
      | Some a ->
        if is_lambda a then begin
          let key = new_anon ctx in
          summarize_lambda key ctx.x_sum.sm_file a;
          closures := (i, key) :: !closures
        end
        else begin
          (match a.Typedtree.exp_desc with
           | Texp_ident (Path.Pident id, _, _) -> (
             match Hashtbl.find_opt tbl_fds (uid id) with
             | Some fd ->
               if is_close_fn nm then begin
                 fd.f_closed <- true;
                 if !cleanup_depth > 0 then fd.f_protected <- true
               end
               else if ends_with_any fd_use_fns nm then ()
               else fd.f_escaped <- true
             | None -> ())
           | _ -> ());
          if is_mutex_type a.Typedtree.exp_type then begin
            let lref, derived = derive_lock ctx a in
            (match lock_annotation a.Typedtree.exp_attributes with
             | Some _ as ann when !lock_ann = None -> lock_ann := ann
             | _ -> ());
            register_lock_name ~loc:e.exp_loc derived !lock_ann;
            lock_args := (i, lref) :: !lock_args
          end;
          s_expr ctx a
        end)
    args;
  push_ev ctx
    (E_call
       { callee; loc = place e.exp_loc; held = ctx.x_held;
         closures = List.rev !closures; lock_args = List.rev !lock_args;
         lock_ann = !lock_ann; allowed = cur_allowed () });
  taint_dep ctx e.exp_loc (dep_name callee);
  List.iter (fun (_, k) -> taint_dep ctx e.exp_loc k) !closures

and s_local_vb ctx (vb : Typedtree.value_binding) =
  let allows = silent_allows vb.vb_attributes in
  with_allows allows @@ fun () ->
  let rhs = vb.vb_expr in
  let open_apply () =
    match rhs.Typedtree.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      let nm = norm2 p in
      if ends_with_any fd_open_fns nm then Some nm
      else if ends_with_any [ "Unix.pipe" ] nm then Some "Unix.pipe"
      else if ends_with_any [ "Unix.accept" ] nm then Some "Unix.accept"
      else if ends_with_any [ "Mutex.create" ] nm then Some "Mutex.create"
      else None
    | _ -> None
  in
  let track id what =
    let fd =
      { f_what = what; f_loc = place vb.vb_pat.pat_loc;
        f_file = ctx.x_sum.sm_file; f_closed = false; f_protected = false;
        f_escaped = false; f_taints = []; f_deps = [];
        f_allowed = cur_allowed () }
    in
    Hashtbl.replace tbl_fds (uid id) fd;
    ctx.x_sum.sm_fds <- fd :: ctx.x_sum.sm_fds;
    ctx.x_fds <- fd :: ctx.x_fds
  in
  match (vb.vb_pat.pat_desc, open_apply ()) with
  | Typedtree.Tpat_var (id, _), Some "Mutex.create" ->
    Hashtbl.replace tbl_local_locks (uid id)
      (ctx.x_sum.sm_key ^ "." ^ Ident.name id)
  | Typedtree.Tpat_var (id, _), Some what when what <> "Unix.pipe" ->
    s_expr ctx rhs;
    track id what
  | Typedtree.Tpat_tuple [ { pat_desc = Tpat_var (a, _); _ };
                           { pat_desc = Tpat_var (b, _); _ } ],
    Some "Unix.pipe" ->
    s_expr ctx rhs;
    track a "Unix.pipe";
    track b "Unix.pipe"
  | Typedtree.Tpat_tuple ({ pat_desc = Tpat_var (a, _); _ } :: _),
    Some "Unix.accept" ->
    s_expr ctx rhs;
    track a "Unix.accept"
  | Typedtree.Tpat_var (id, _), None when is_lambda rhs ->
    let key = ctx.x_sum.sm_key ^ "." ^ Ident.name id in
    Hashtbl.replace tbl_local_fns (uid id) key;
    summarize_lambda key ctx.x_sum.sm_file rhs
  | _ -> s_expr ctx rhs

(* Build a fresh summary for a function (or closure literal): peel the
   curried spine to register parameters, then walk the body. *)
and summarize_lambda key file (e : Typedtree.expression) =
  let sum = get_summary key file in
  let rec peel acc (ex : Typedtree.expression) =
    match ex.exp_desc with
    | Texp_function { param; cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      peel (uid param :: acc) c_rhs
    | Texp_function { param; cases; _ } ->
      (List.rev (uid param :: acc), `Cases cases)
    | _ -> (List.rev acc, `Body ex)
  in
  let params, body = peel [] e in
  let ctx =
    { x_sum = sum; x_params = params; x_held = []; x_raw = []; x_fds = [] }
  in
  (match body with
   | `Body b -> s_expr ctx b
   | `Cases cases -> List.iter (fun c -> s_expr ctx c.Typedtree.c_rhs) cases);
  sum.sm_events <- List.rev sum.sm_events

let file_level_allows_silent (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute a -> silent_allows [ a ]
      | _ -> [])
    str.str_items

(* Per-file phase-1 entry point. *)
let summarize_structure ~src (str : Typedtree.structure) =
  cur_file := src;
  let module_name =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename src))
  in
  cur_module := module_name;
  Hashtbl.reset tbl_local_fns;
  Hashtbl.reset tbl_local_locks;
  Hashtbl.reset tbl_fds;
  Hashtbl.reset tbl_module_vals;
  anon_n := 0;
  catch_depth := 0;
  cleanup_depth := 0;
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              Hashtbl.replace tbl_module_vals (uid id)
                (module_name ^ "." ^ Ident.name id)
            | _ -> ())
          vbs
      | _ -> ())
    str.str_items;
  allow_stack := [ file_level_allows_silent str ];
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              let key = module_name ^ "." ^ Ident.name id in
              let allows = silent_allows vb.vb_attributes in
              with_allows allows (fun () ->
                  summarize_lambda key src vb.vb_expr)
            | _ ->
              let key =
                Printf.sprintf "%s.__init%d" module_name
                  item.str_loc.Location.loc_start.Lexing.pos_lnum
              in
              summarize_lambda key src vb.Typedtree.vb_expr)
          vbs
      | _ -> ())
    str.str_items

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let file_level_allows (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute a -> allows_of_attributes [ a ]
      | _ -> [])
    str.str_items

let lint_structure ~src (str : Typedtree.structure) =
  cur_file := src;
  cur_policy := policy_of_file src;
  par_context := None;
  loop_depth := 0;
  allow_stack := [ file_level_allows str ];
  linter.structure linter str

(* R11: the [val]s of the scanned lib/ interfaces (every scanned
   interface in fixture mode), keyed like {!references}. *)
type export = { ex_key : string; ex_file : string; ex_line : int }

let exports : export list ref = ref []

let is_test_hook attrs = List.mem "test-hook" (allow_ids attrs)

let collect_exports ~src (sg : Typedtree.signature) =
  if !fixture_mode || String.starts_with ~prefix:"lib/" src then
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd when not (is_test_hook vd.val_attributes) ->
          exports :=
            { ex_key = !cur_unit ^ "." ^ Ident.name vd.val_id;
              ex_file = src;
              ex_line = vd.val_loc.loc_start.pos_lnum }
            :: !exports
        | _ -> ())
      sg.sig_items

let scan_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn ->
    Printf.eprintf "sider-lint: cannot read %s: %s\n" path
      (Printexc.to_string exn)
  | infos -> (
    cur_unit := collapse_component infos.cmt_modname;
    match (infos.cmt_annots, infos.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some src
      when not (Filename.check_suffix src ".ml-gen") ->
      incr files_scanned;
      if !debug then Printf.eprintf "sider-lint: scanning %s (%s)\n" src path;
      lint_structure ~src str;
      summarize_structure ~src str
    | Cmt_format.Interface sg, Some src -> collect_exports ~src sg
    | _ -> ())

let rec collect_cmts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc entry -> collect_cmts acc (Filename.concat path entry)) acc
  else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
  then path :: acc
  else acc

(* R11 needs every caller in view: it runs in fixture mode, and on a scan
   whose roots include lib and every directory that may call it. *)
let whole_tree roots =
  !fixture_mode
  || List.for_all
       (fun d -> List.mem d roots)
       [ "lib"; "bin"; "bench"; "test"; "examples" ]

let report_r11 () =
  List.iter
    (fun ex ->
      let module_of = List.hd (String.split_on_char '.' ex.ex_key) in
      let callers =
        Hashtbl.find_all references ex.ex_key
        |> List.filter (fun (unit, _) -> unit <> module_of)
      in
      let in_test (_, file) = String.starts_with ~prefix:"test/" file in
      let msg =
        if callers = [] then
          Some "no other compilation unit references it"
        else if List.for_all in_test callers then Some "only test/ references it"
        else None
      in
      Option.iter
        (fun m ->
          findings :=
            { file = ex.ex_file;
              line = ex.ex_line;
              rule = r_dead;
              msg =
                Printf.sprintf
                  "exported '%s': %s; drop it from the interface, or mark a \
                   deliberate test hook [@@sider.allow \"test-hook\"]"
                  ex.ex_key m }
            :: !findings)
        msg)
    !exports

(* ================================================================== *)
(* Phase 2: closing the summaries over the call graph                  *)
(* ================================================================== *)

(* Phase-2 findings fire after every file's walk, so the allow stack is
   gone; instead each event/acquisition/resource carried the allow set
   that was active where it was written. *)
let add_finding ~allowed ~rule (file, line) msg =
  if not (List.mem rule allowed) then
    findings := { file; line; rule; msg } :: !findings

(* Resolve a callee name to a summary key: exact match first, then a
   unique last-two-component match (cross-library references keep their
   alias prefix, e.g. "Sider_obs.Obs.count" vs. key "Obs.count"). *)
let resolve_index : (string, string list) Hashtbl.t = Hashtbl.create 512

let build_resolve_index () =
  Hashtbl.reset resolve_index;
  Hashtbl.iter
    (fun key _ ->
      let short = last2 key in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt resolve_index short)
      in
      Hashtbl.replace resolve_index short (key :: prev))
    summaries

let resolve_key nm =
  if Hashtbl.mem summaries nm then Some nm
  else
    match Hashtbl.find_opt resolve_index (last2 nm) with
    | Some [ k ] -> Some k
    | _ -> None

(* ---- may-raise fixpoint ---- *)

let may_raise_tbl : (string, bool) Hashtbl.t = Hashtbl.create 512

let dep_may_raise name =
  if name = "?param" then true (* unknown function argument: conservative *)
  else
    match resolve_key name with
    | Some k -> Option.value ~default:false (Hashtbl.find_opt may_raise_tbl k)
    | None -> not (benign_call name)

let compute_may_raise () =
  Hashtbl.iter (fun k _ -> Hashtbl.replace may_raise_tbl k false) summaries;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun k s ->
        if not (Hashtbl.find may_raise_tbl k) then
          if s.sm_direct_raise || List.exists dep_may_raise s.sm_raise_deps
          then begin
            Hashtbl.replace may_raise_tbl k true;
            changed := true
          end)
      summaries
  done

(* ---- blocking reachability fixpoint (R10) ---- *)

(* key -> (blocking primitive reached, first hop — "" when direct). *)
let blocks_tbl : (string, string * string) Hashtbl.t = Hashtbl.create 64

let compute_blocks () =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun k s ->
        if not (Hashtbl.mem blocks_tbl k) then begin
          let found = ref None in
          let via_closures closures =
            List.iter
              (fun (_, ck) ->
                if !found = None then
                  match Hashtbl.find_opt blocks_tbl ck with
                  | Some (prim, _) -> found := Some (prim, ck)
                  | None -> ())
              closures
          in
          List.iter
            (fun ev ->
              if !found = None then
                match ev with
                | E_call { callee = C_path nm; closures; _ } ->
                  if is_blocking_prim nm then found := Some (last2 nm, "")
                  else begin
                    (match resolve_key nm with
                     | Some k' -> (
                       match Hashtbl.find_opt blocks_tbl k' with
                       | Some (prim, _) -> found := Some (prim, k')
                       | None -> ())
                     | None -> ());
                    if !found = None then via_closures closures
                  end
                | E_call { callee = C_param _; closures; _ } ->
                  via_closures closures
                | E_acquire _ -> ())
            s.sm_events;
          match !found with
          | Some v ->
            Hashtbl.replace blocks_tbl k v;
            changed := true
          | None -> ()
        end)
      summaries
  done

(* ---- lock-acquisition graph + interprocedural traversal ---- *)

type edge_info = {
  eg_blocking : bool;
  eg_loc : string * int;
  eg_allowed : string list;
}

let lock_edges : (string * string, edge_info) Hashtbl.t = Hashtbl.create 64

let record_edge ~blocking ~loc ~allowed a b =
  if a <> b then
    match Hashtbl.find_opt lock_edges (a, b) with
    | None ->
      Hashtbl.replace lock_edges (a, b)
        { eg_blocking = blocking; eg_loc = loc; eg_allowed = allowed }
    | Some e when (not e.eg_blocking) && blocking ->
      Hashtbl.replace lock_edges (a, b)
        { eg_blocking = true; eg_loc = loc; eg_allowed = allowed }
    | Some _ -> ()

let run_memo : (string, unit) Hashtbl.t = Hashtbl.create 1024

let env_sig locks closures =
  String.concat ","
    (List.map (fun (i, s) -> Printf.sprintf "%d=%s" i s) locks)
  ^ ";"
  ^ String.concat ","
      (List.map (fun (i, s) -> Printf.sprintf "%d=%s" i s) closures)

(* Walk a summary with [held] the (caller-resolved) locks held at entry.
   [locks]/[closures] bind this summary's parameter positions to the
   concrete mutexes / closure summaries the call site supplied.  [site]
   is the call chain's most recent call location — used to attribute
   events on parameter locks to the caller, not the wrapper body.
   [allow] accumulates the allow sets active at each call site on the
   chain, so an escape granted where a wrapper is *called* also covers
   findings inside the wrapper.  [r10] prunes R10 reports below the
   shallowest one on this path. *)
let rec run_summary key held ~locks ~closures ~site ~allow ~r10 depth =
  if depth <= 14 then
    match Hashtbl.find_opt summaries key with
    | None -> ()
    | Some s ->
      let mkey =
        Printf.sprintf "%s|%s|%s|%b" key
          (String.concat "," held)
          (env_sig locks closures)
          r10
      in
      if not (Hashtbl.mem run_memo mkey) then begin
        Hashtbl.add run_memo mkey ();
        let r10 = ref r10 in
        let resolve_lref = function
          | L_named d -> Some d
          | L_param i -> List.assoc_opt i locks
        in
        List.iter
          (fun ev ->
            match ev with
            | E_acquire { lock; blocking; loc; held = lheld; allowed } -> (
              let all = held @ List.filter_map resolve_lref lheld in
              let allowed = allowed @ allow in
              let loc =
                match lock with
                | L_param _ -> Option.value ~default:loc site
                | L_named _ -> loc
              in
              match resolve_lref lock with
              | None -> ()
              | Some l ->
                List.iter
                  (fun h ->
                    if h <> l then record_edge ~blocking ~loc ~allowed h l)
                  all;
                if blocking && List.mem l all then
                  add_finding ~allowed ~rule:r_lsafe loc
                    (Printf.sprintf
                       "'%s' is re-acquired while already held \
                        (self-deadlock)"
                       (display_lock l)))
            | E_call
                { callee; loc; held = lheld; closures = cls; lock_args;
                  allowed; _ } ->
              let all = held @ List.filter_map resolve_lref lheld in
              let allowed = allowed @ allow in
              (match (List.find_opt is_watched all, callee) with
               | Some w, C_path nm when not !r10 ->
                 if is_blocking_prim nm then begin
                   add_finding ~allowed ~rule:r_block loc
                     (Printf.sprintf "calls blocking '%s' while '%s' is held"
                        (last2 nm) (display_lock w));
                   r10 := true
                 end
                 else (
                   match resolve_key nm with
                   | Some k' -> (
                     match Hashtbl.find_opt blocks_tbl k' with
                     | Some (prim, via) ->
                       add_finding ~allowed ~rule:r_block loc
                         (if via = "" then
                            Printf.sprintf
                              "calls '%s', which blocks on '%s', while \
                               '%s' is held"
                              (last2 k') prim (display_lock w)
                          else
                            Printf.sprintf
                              "reaches blocking '%s' (via '%s') while \
                               '%s' is held"
                              prim (last2 k') (display_lock w));
                       r10 := true
                     | None -> ())
                   | None -> ())
               | _ -> ());
              let resolved_locks =
                List.filter_map
                  (fun (i, lr) ->
                    match resolve_lref lr with
                    | Some d -> Some (i, d)
                    | None -> None)
                  lock_args
              in
              (match callee with
               | C_param i -> (
                 match List.assoc_opt i closures with
                 | Some k' ->
                   run_summary k' all ~locks:[] ~closures:[]
                     ~site:(Some loc) ~allow:allowed ~r10:!r10 (depth + 1)
                 | None -> ())
               | C_path nm -> (
                 match resolve_key nm with
                 | Some k' ->
                   run_summary k' all ~locks:resolved_locks ~closures:cls
                     ~site:(Some loc) ~allow:allowed ~r10:!r10 (depth + 1)
                 | None ->
                   (* Unknown external higher-order function: assume it
                      may run its closure arguments inline, locks held. *)
                   List.iter
                     (fun (_, ck) ->
                       run_summary ck all ~locks:[] ~closures:[]
                         ~site:(Some loc) ~allow:allowed ~r10:!r10
                         (depth + 1))
                     cls)))
          s.sm_events
      end

(* ---- R7: cycles in the blocking-acquisition graph ---- *)

let report_r7 () =
  let blocking_edges =
    Hashtbl.fold
      (fun ab e acc -> if e.eg_blocking then (ab, e) :: acc else acc)
      lock_edges []
    |> List.sort compare
  in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun ((a, b), _) -> [ a; b ]) blocking_edges)
  in
  let reach = Hashtbl.create 64 in
  List.iter (fun (ab, _) -> Hashtbl.replace reach ab ()) blocking_edges;
  List.iter
    (fun k ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if Hashtbl.mem reach (i, k) && Hashtbl.mem reach (k, j) then
                Hashtbl.replace reach (i, j) ())
            nodes)
        nodes)
    nodes;
  let reported = ref [] in
  List.iter
    (fun ((a, b), e) ->
      if Hashtbl.mem reach (b, a) then begin
        let pair = if a < b then (a, b) else (b, a) in
        if not (List.mem pair !reported) then begin
          reported := pair :: !reported;
          match Hashtbl.find_opt lock_edges (b, a) with
          | Some e2 when e2.eg_blocking ->
            let f2, l2 = e2.eg_loc in
            add_finding ~allowed:e.eg_allowed ~rule:r_lock e.eg_loc
              (Printf.sprintf
                 "lock-order cycle: '%s' -> '%s' here, but '%s' -> '%s' \
                  at %s:%d — potential deadlock"
                 (display_lock a) (display_lock b) (display_lock b)
                 (display_lock a) f2 l2)
          | _ ->
            add_finding ~allowed:e.eg_allowed ~rule:r_lock e.eg_loc
              (Printf.sprintf
                 "lock-order cycle through '%s' -> '%s': '%s' is \
                  reachable back from '%s' in the acquisition graph — \
                  potential deadlock"
                 (display_lock a) (display_lock b) (display_lock a)
                 (display_lock b))
        end
      end)
    blocking_edges

(* ---- R8: exception-skippable unlocks ---- *)

let finalize_r8 () =
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun r ->
          if not r.r_protected then begin
            let name = display_lock r.r_derived in
            match List.rev r.r_taints with
            | (tf, tl, desc) :: _ ->
              add_finding ~allowed:r.r_allowed ~rule:r_lsafe r.r_loc
                (Printf.sprintf
                   "raw Mutex.lock of '%s': %s at %s:%d can raise and skip \
                    the unlock — wrap in Fun.protect or with_lock"
                   name desc tf tl)
            | [] -> (
              match
                List.find_opt (fun (n, _) -> dep_may_raise n)
                  (List.rev r.r_deps)
              with
              | Some (n, (df, dl)) ->
                add_finding ~allowed:r.r_allowed ~rule:r_lsafe r.r_loc
                  (Printf.sprintf
                     "raw Mutex.lock of '%s': call to '%s' at %s:%d may \
                      raise and skip the unlock — wrap in Fun.protect or \
                      with_lock"
                     name
                     (if n = "?param" then "a function argument"
                      else last2 n)
                     df dl)
              | None ->
                if not r.r_unlocked then
                  add_finding ~allowed:r.r_allowed ~rule:r_lsafe r.r_loc
                    (Printf.sprintf
                       "Mutex.lock of '%s' has no matching unlock in this \
                        function"
                       name))
          end)
        s.sm_raws)
    summaries

(* ---- R9: fd lifecycle ---- *)

let finalize_r9 () =
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun fd ->
          if not fd.f_escaped then
            if not fd.f_closed then
              add_finding ~allowed:fd.f_allowed ~rule:r_fd fd.f_loc
                (Printf.sprintf
                   "resource from '%s' is never closed and never escapes — \
                    close it on every path or transfer ownership"
                   fd.f_what)
            else if fd_strict fd.f_file && not fd.f_protected then begin
              match List.rev fd.f_taints with
              | (tf, tl, desc) :: _ ->
                add_finding ~allowed:fd.f_allowed ~rule:r_fd fd.f_loc
                  (Printf.sprintf
                     "close of the '%s' resource can be skipped: %s at \
                      %s:%d may raise first — use Fun.protect ~finally"
                     fd.f_what desc tf tl)
              | [] -> (
                match
                  List.find_opt (fun (n, _) -> dep_may_raise n)
                    (List.rev fd.f_deps)
                with
                | Some (n, (df, dl)) ->
                  add_finding ~allowed:fd.f_allowed ~rule:r_fd fd.f_loc
                    (Printf.sprintf
                       "close of the '%s' resource can be skipped: call to \
                        '%s' at %s:%d may raise first — use Fun.protect \
                        ~finally"
                       fd.f_what
                       (if n = "?param" then "a function argument"
                        else last2 n)
                       df dl)
                | None -> ())
            end)
        s.sm_fds)
    summaries

(* ---- wrapper-call annotation hygiene ---- *)

(* A mutex handed to a wrapper that locks it (with_lock, Mutex.protect
   analogues) needs the [@sider.lock] name at the call site, since that
   is the acquisition the summary graph sees. *)
let finalize_wrapper_annotations () =
  Hashtbl.iter
    (fun _ s ->
      if must_annotate s.sm_file then
        List.iter
          (fun ev ->
            match ev with
            | E_call
                { callee = C_path nm; lock_args; lock_ann = None; loc;
                  allowed; _ }
              when lock_args <> [] -> (
              match resolve_key nm with
              | None -> ()
              | Some k -> (
                match Hashtbl.find_opt summaries k with
                | None -> ()
                | Some cs ->
                  let locks_param i =
                    List.exists
                      (function
                        | E_acquire { lock = L_param j; _ } -> j = i
                        | _ -> false)
                      cs.sm_events
                  in
                  if List.exists (fun (i, _) -> locks_param i) lock_args then
                    add_finding ~allowed ~rule:r_lock loc
                      (Printf.sprintf
                         "'%s' locks the mutex passed here; annotate the \
                          argument with [@sider.lock \"name\"]"
                         (last2 nm))))
            | _ -> ())
          s.sm_events)
    summaries

let phase2 () =
  build_resolve_index ();
  compute_may_raise ();
  compute_blocks ();
  if !debug then begin
    Hashtbl.iter
      (fun k (p, via) ->
        Printf.eprintf "blocks: %s -> %s (via %s)\n" k p via)
      blocks_tbl;
    Hashtbl.iter
      (fun k v ->
        if v then
          match Hashtbl.find_opt summaries k with
          | Some s ->
            Printf.eprintf "may_raise: %s%s deps=[%s]\n" k
              (if s.sm_direct_raise then " (direct)" else "")
              (String.concat "; "
                 (List.filter dep_may_raise s.sm_raise_deps))
          | None -> ())
      may_raise_tbl;
    Hashtbl.iter
      (fun k s ->
        Printf.eprintf "summary %s: %d events%s\n" k
          (List.length s.sm_events)
          (if s.sm_direct_raise then " raises" else "");
        List.iter
          (fun ev ->
            match ev with
            | E_acquire { lock; blocking; loc = _, l; held; _ } ->
              Printf.eprintf "  acquire %s blocking=%b line=%d held=%d\n"
                (match lock with
                 | L_named d -> d
                 | L_param i -> Printf.sprintf ":param%d" i)
                blocking l (List.length held)
            | E_call { callee; loc = _, l; held; closures; lock_args; _ } ->
              Printf.eprintf
                "  call %s line=%d held=%d closures=%d lock_args=%d\n"
                (match callee with
                 | C_path p -> p
                 | C_param i -> Printf.sprintf ":param%d" i)
                l (List.length held) (List.length closures)
                (List.length lock_args))
          s.sm_events)
      summaries
  end;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) summaries [] |> List.sort compare
  in
  List.iter
    (fun k ->
      run_summary k [] ~locks:[] ~closures:[] ~site:None ~allow:[]
        ~r10:false 0)
    keys;
  if !debug then
    Hashtbl.iter
      (fun (a, b) e ->
        Printf.eprintf "edge: %s -> %s%s (%s:%d)\n" (display_lock a)
          (display_lock b)
          (if e.eg_blocking then "" else " [try]")
          (fst e.eg_loc) (snd e.eg_loc))
      lock_edges;
  report_r7 ();
  finalize_r8 ();
  finalize_r9 ();
  finalize_wrapper_annotations ()

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 output                                                  *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rule_descriptions =
  [
    (r_det, "Wall-clock / global-RNG / environment use inside deterministic core code");
    (r_dom, "Domain-unsafe shared-state access inside a parallel region");
    (r_err, "Raw exception raised where Sider_error is required");
    (r_flt, "Float equality comparison in numeric code");
    (r_obs, "Unlabeled observability counter or histogram update");
    (r_alloc, "Matrix allocation inside a hot loop");
    (r_lock, "Lock-order hazard: acquisition-graph cycle or missing \
              [@sider.lock] annotation");
    (r_lsafe, "Lock-safety hazard: unlock skippable by an exception path \
               or same-mutex re-acquisition");
    (r_fd, "File-descriptor lifecycle hazard: leak or exception-skippable \
            close");
    (r_block, "Blocking primitive reachable while reg_lock is held");
    (r_dead, "Exported value no compilation unit outside test/ uses");
  ]

let emit_sarif path sorted =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\n  \"$schema\": \
     \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \
     \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
     \"driver\": {\n          \"name\": \"sider-lint\",\n          \
     \"informationUri\": \"https://example.invalid/sider\",\n          \
     \"version\": \"2.0.0\",\n          \"rules\": [\n";
  List.iteri
    (fun i (id, desc) ->
      Buffer.add_string b
        (Printf.sprintf
           "            {\"id\": \"%s\", \"shortDescription\": {\"text\": \
            \"%s\"}}%s\n"
           (json_escape id) (json_escape desc)
           (if i = List.length rule_descriptions - 1 then "" else ",")))
    rule_descriptions;
  Buffer.add_string b
    "          ]\n        }\n      },\n      \"results\": [\n";
  List.iteri
    (fun i f ->
      Buffer.add_string b
        (Printf.sprintf
           "        {\"ruleId\": \"%s\", \"level\": \"error\", \
            \"message\": {\"text\": \"%s\"}, \"locations\": [{\
            \"physicalLocation\": {\"artifactLocation\": {\"uri\": \
            \"%s\"}, \"region\": {\"startLine\": %d}}}]}%s\n"
           (json_escape f.rule) (json_escape f.msg) (json_escape f.file)
           (max 1 f.line)
           (if i = List.length sorted - 1 then "" else ",")))
    sorted;
  Buffer.add_string b "      ]\n    }\n  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc b)

let () =
  let t0 = Unix.gettimeofday () in
  let roots = ref [] in
  let usage = "sider-lint [--fixture-mode] [--sarif FILE] [--debug] PATH...\n\
               Scans PATH (directories or .cmt files) for typed-AST \
               invariant violations." in
  Arg.parse
    [
      ("--fixture-mode", Arg.Set fixture_mode,
       " apply every rule to every file (for the linter's own test suite)");
      ("--sarif", Arg.String (fun f -> sarif_out := Some f),
       "FILE also write findings as SARIF 2.1.0 to FILE");
      ("--debug", Arg.Set debug, " log scanned files to stderr");
    ]
    (fun p -> roots := p :: !roots)
    usage;
  if !roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let cmts =
    List.fold_left
      (fun acc root ->
        if not (Sys.file_exists root) then begin
          Printf.eprintf "sider-lint: no such path: %s\n" root;
          exit 2
        end;
        collect_cmts acc root)
      [] (List.rev !roots)
    |> List.sort_uniq compare
  in
  List.iter scan_cmt cmts;
  phase2 ();
  if whole_tree !roots then report_r11 ();
  let sorted =
    List.sort_uniq
      (fun a b ->
        match compare a.file b.file with
        | 0 -> (
          match compare a.line b.line with
          | 0 -> compare (a.rule, a.msg) (b.rule, b.msg)
          | c -> c)
        | c -> c)
      !findings
  in
  List.iter
    (fun f -> Printf.printf "%s:%d: [%s] %s\n" f.file f.line f.rule f.msg)
    sorted;
  Option.iter (fun path -> emit_sarif path sorted) !sarif_out;
  Printf.eprintf "sider-lint: %d finding(s) in %d file(s) scanned in %.3fs\n"
    (List.length sorted) !files_scanned
    (Unix.gettimeofday () -. t0);
  exit (if sorted = [] then 0 else 1)
