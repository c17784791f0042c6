open Sider_linalg
open Sider_rand
module Obs = Sider_obs.Obs

type t = {
  directions : Mat.t;
  scores : Vec.t;
  iterations : int;
  converged : bool;
  unmixing : Mat.t;
}

type prep = {
  src : Mat.t;
  n : int;
  d : int;
  m_comp : int;
  dproj : Mat.t;                  (* d × m_comp whitening projection *)
  kernel : Ica_kernel.t option;   (* None when m_comp = 0 *)
  gz : Mat.t;                     (* m_comp × m_comp sweep scratch *)
  eg : Vec.t;                     (* m_comp sweep scratch *)
}

(* Symmetric decorrelation: W ← (W Wᵀ)^{-1/2} W. *)
let sym_decorrelate w =
  let dec = Eigen.symmetric (Mat.matmul_nt w w) in
  Mat.matmul (Eigen.power dec (-0.5)) w

(* Components whose internal-whitening eigenvalue is below [rank_tol]
   relative to the largest are dropped. *)
let rank_tol = 1e-9

let prepare m =
  Obs.count "ica.prepare";
  let n, d = Mat.dims m in
  if n < 2 then invalid_arg "Fastica.prepare: need at least two rows" [@sider.allow "error-discipline"];
  let cov = Mat.covariance m in
  let { Eigen.values; vectors } = Eigen.symmetric cov in
  let lead = Float.max (if d > 0 then values.(0) else 0.0) 0.0 in
  let m_comp =
    let c = ref 0 in
    Array.iter (fun v -> if v > rank_tol *. Float.max lead 1e-300 then incr c)
      values;
    !c
  in
  if m_comp = 0 then
    { src = m; n; d; m_comp; dproj = Mat.create d 0; kernel = None;
      gz = Mat.create 0 0; eg = [||] }
  else begin
    (* Internal whitening: z = D^{-1/2} Vᵀ (x − mean), per row, centred
       as the product reads it and written straight into the kernel.
       Everything here depends only on the data, not the seed, so one
       [prep] serves every fit of the same data. *)
    let dproj = Mat.init d m_comp (fun i j ->
        Mat.get vectors i j /. sqrt values.(j))
    in
    let mean = Mat.col_means m in
    let kernel =
      Ica_kernel.create ~n ~m:m_comp (fun dst stride ->
          Mat.matmul_centred_into ~dst ~stride m mean dproj)
    in
    { src = m; n; d; m_comp; dproj; kernel = Some kernel;
      gz = Mat.create m_comp m_comp; eg = Vec.create m_comp }
  end

let fit_prepared_impl ?w0 ?(max_iter = 200) ?(tol = 1e-4) rng prep =
  let { n; d; m_comp; _ } = prep in
  match prep.kernel with
  | None ->
    (* [prepare] binds a kernel exactly when m_comp > 0. *)
    { directions = Mat.create d 0; scores = [||]; iterations = 0;
      converged = true; unmixing = Mat.create 0 0 }
  | Some kernel ->
    let fn = float_of_int n in
    (* Fixed point iteration on the unmixing matrix w : m_comp × m_comp.
       A caller-supplied w0 (matching shape) replaces the random draw —
       the warm path for incremental session updates; it is re-decorrelated
       so any roughly-orthonormal matrix is a valid start.  On shape
       mismatch w0 is ignored (the component count changed under us). *)
    let w =
      ref
        (match w0 with
        | Some v when Mat.dims v = (m_comp, m_comp) -> sym_decorrelate v
        | _ -> sym_decorrelate (Sampler.normal_mat rng m_comp m_comp))
    in
    let gz = prep.gz and eg' = prep.eg in
    let gza = gz.Mat.a in
    let iterations = ref 0 and converged = ref false in
    while (not !converged) && !iterations < max_iter do
      incr iterations;
      (* One sweep: s = z wᵀ, g = tanh s, gz = gᵀz and the E[g'] sums
         (see Ica_kernel).  The update is
         W_new = (gᵀ z)/n − diag(E[g']) W, over the flat arrays so no
         entry is boxed. *)
      let wa = (!w).Mat.a in
      Ica_kernel.sweep kernel ~w:!w ~gz ~eg:eg';
      let raw = Mat.create m_comp m_comp in
      let rawa = raw.Mat.a in
      for k = 0 to m_comp - 1 do
        let off = k * m_comp in
        for j = 0 to m_comp - 1 do
          Array.unsafe_set rawa (off + j)
            ((Array.unsafe_get gza (off + j) /. fn)
             -. (eg'.(k) /. fn *. Array.unsafe_get wa (off + j)))
        done
      done;
      let w_new = sym_decorrelate raw in
      (* Convergence: every direction's inner product with its previous
         value is ±1. *)
      let delta = ref 0.0 in
      let na = w_new.Mat.a in
      for k = 0 to m_comp - 1 do
        let off = k * m_comp in
        let dot = ref 0.0 in
        for j = 0 to m_comp - 1 do
          dot := !dot
                 +. (Array.unsafe_get na (off + j)
                     *. Array.unsafe_get wa (off + j))
        done;
        delta := Float.max !delta (Float.abs (Float.abs !dot -. 1.0))
      done;
      w := w_new;
      if !delta < tol then converged := true
    done;
    (* Map unmixing rows back to input-space directions:
       s_k = w_k · D^{-1/2}Vᵀ(x − mean) so the direction is V D^{-1/2} w_kᵀ,
       normalized to unit length (norms computed once per column). *)
    let dirs = Mat.matmul_nt prep.dproj !w in      (* d × m_comp *)
    let norms = Array.init m_comp (fun j -> Vec.norm2 (Mat.col dirs j)) in
    (* Loops over the flat arrays, as in the sweep, so no entry is boxed. *)
    let da = dirs.Mat.a in
    for i = 0 to d - 1 do
      for j = 0 to m_comp - 1 do
        let k = (i * m_comp) + j in
        Array.unsafe_set da k
          (if Float.equal norms.(j) 0.0 then 0.0
           else Array.unsafe_get da k /. norms.(j))
      done
    done;
    let scratch = Array.create_float n in
    let scores =
      Array.init m_comp (fun j ->
          Scores.direction_log_cosh ~scratch prep.src (Mat.col dirs j))
    in
    (* Order by decreasing |score| (Table I ordering).  [unmixing] stays
       in fit order: it is the warm-start state, not a display artifact. *)
    let perm = Array.init m_comp Fun.id in
    Array.sort
      (fun i j -> compare (Float.abs scores.(j)) (Float.abs scores.(i)))
      perm;
    let directions = Mat.create d m_comp in
    let sorted = directions.Mat.a in
    for i = 0 to d - 1 do
      for j = 0 to m_comp - 1 do
        Array.unsafe_set sorted ((i * m_comp) + j)
          (Array.unsafe_get da ((i * m_comp) + perm.(j)))
      done
    done;
    {
      directions;
      scores = Array.map (fun k -> scores.(k)) perm;
      iterations = !iterations;
      converged = !converged;
      unmixing = !w;
    }

let fit_prepared ?w0 ?max_iter ?tol rng prep =
  let run () = fit_prepared_impl ?w0 ?max_iter ?tol rng prep in
  if not (Obs.enabled ()) then run ()
  else
    Obs.with_span "ica.fit"
      ~attrs:[ ("rows", Obs.Int prep.n); ("cols", Obs.Int prep.d) ]
      (fun () ->
        let fitted = run () in
        Obs.span_attr "iterations" (Obs.Int fitted.iterations);
        Obs.span_attr "converged" (Obs.Bool fitted.converged);
        fitted)

let fit rng m = fit_prepared rng (prepare m)

let top2 t =
  let _, m = Mat.dims t.directions in
  if m < 2 then invalid_arg "Fastica.top2: fewer than two components" [@sider.allow "error-discipline"];
  (Mat.col t.directions 0, Mat.col t.directions 1)
