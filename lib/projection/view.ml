open Sider_linalg
open Sider_rand
open Sider_robust
module Obs = Sider_obs.Obs

type method_ = Pca | Ica

type axis = { direction : Vec.t; score : float }

type t = {
  method_ : method_;
  axis1 : axis;
  axis2 : axis;
  degraded : Sider_error.t option;
  unmixing : Mat.t option;
}

let method_name = function Pca -> "PCA" | Ica -> "ICA"

let pca_view ?degraded y =
  let fitted = Pca.fit y in
  let w1, w2 = Pca.top2 fitted in
  {
    method_ = Pca;
    axis1 = { direction = w1; score = fitted.Pca.gains.(0) };
    axis2 = { direction = w2; score = fitted.Pca.gains.(1) };
    degraded;
    unmixing = None;
  }

let of_whitened ?rng ?ica_max_iter ?ica_w0 ~method_ y =
  let rng = match rng with Some r -> r | None -> Rng.create 42 in
  Obs.with_span "view.of_whitened"
    ~attrs:[ ("method", Obs.Str (method_name method_)) ]
  @@ fun () ->
  match method_ with
  | Pca -> pca_view y
  | Ica ->
    (* One FastICA fit.  A fit that does not converge has almost always
       found no distinguished pair of directions (its top scores tie):
       a result to show, not a fault to retry from another start, which
       would only draw another arbitrary pair.  Its usable axes are kept
       and the view is flagged degraded; with fewer than two finite
       directions it degrades to PCA instead. *)
    let fitted =
      Fastica.fit_prepared ?w0:ica_w0 ?max_iter:ica_max_iter rng
        (Fastica.prepare y)
    in
    let _, m = Mat.dims fitted.Fastica.directions in
    if m >= 2 && Kernels.finite_mat fitted.Fastica.directions then begin
      let w1, w2 = Fastica.top2 fitted in
      let degraded =
        if fitted.Fastica.converged then None
        else
          Some
            (Sider_error.non_convergence
               (Printf.sprintf
                  "FastICA did not converge in %d iterations; using the \
                   non-converged directions"
                  fitted.Fastica.iterations))
      in
      {
        method_ = Ica;
        axis1 = { direction = w1; score = fitted.Fastica.scores.(0) };
        axis2 = { direction = w2; score = fitted.Fastica.scores.(1) };
        degraded;
        unmixing = Some fitted.Fastica.unmixing;
      }
    end
    else begin
      Obs.count "view.pca_fallback";
      pca_view
        ~degraded:
          (Sider_error.non_convergence
             "FastICA found fewer than two usable directions; fell back \
              to PCA")
        y
    end

let of_solver ?rng ?ica_w0 ~method_ solver =
  Whiten.with_whitened solver (fun y -> of_whitened ?rng ?ica_w0 ~method_ y)

(* [Mat.row_dot] adds the terms in [Vec.dot]'s order without copying
   the row. *)
let project t m =
  let n, _ = Mat.dims m in
  Array.init n (fun i ->
      (Mat.row_dot m i t.axis1.direction, Mat.row_dot m i t.axis2.direction))

let axis_label ?top ~columns ~prefix axis =
  let d = Array.length axis.direction in
  if Array.length columns <> d then
    invalid_arg "View.axis_label: column count mismatch" [@sider.allow "error-discipline"];
  let top = match top with Some t -> Stdlib.min t d | None -> d in
  let order = Array.init d Fun.id in
  Array.sort
    (fun i j ->
      compare (Float.abs axis.direction.(j)) (Float.abs axis.direction.(i)))
    order;
  let terms =
    List.init top (fun k ->
        let j = order.(k) in
        let c = axis.direction.(j) in
        Printf.sprintf "%+.2f (%s)" c columns.(j))
  in
  Printf.sprintf "%s[%.2g] = %s" prefix axis.score (String.concat " " terms)
