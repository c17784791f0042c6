open Sider_linalg
open Sider_robust

type t = {
  mutable theta1 : Vec.t;
  mutable sigma : Mat.t;
  mutable mean : Vec.t;
  scratch_g : Vec.t;
  mutable scratch_sigma : Mat.t;
}

let initial d =
  { theta1 = Vec.create d; sigma = Mat.identity d; mean = Vec.create d;
    scratch_g = Vec.create d; scratch_sigma = Mat.create d d }

let copy t =
  let d = Array.length t.mean in
  { theta1 = Vec.copy t.theta1; sigma = Mat.copy t.sigma;
    mean = Vec.copy t.mean;
    scratch_g = Vec.create d; scratch_sigma = Mat.create d d }

(* [Mat.copy_into] checks the shapes, so it goes first. *)
let copy_into ~dst t =
  Mat.copy_into ~dst:dst.sigma t.sigma;
  let d = Array.length t.mean in
  Array.blit t.theta1 0 dst.theta1 0 d;
  Array.blit t.mean 0 dst.mean 0 d

let apply_linear t ~lambda ~w =
  let g = t.scratch_g in
  Mat.mv_into ~dst:g t.sigma w;
  Vec.axpy lambda w t.theta1;
  Vec.axpy lambda g t.mean

(* A Σ that lost positive definiteness shows up on the diagonal first:
   a variance gone non-positive or non-finite.  This O(d) necessary
   condition is the cheap validation run after every rank-1 update. *)
let diag_healthy sigma =
  let d, _ = Mat.dims sigma in
  let ok = ref true in
  for i = 0 to d - 1 do
    let v = Mat.get sigma i i in
    if not (Float.is_finite v) || v <= 0.0 then ok := false
  done;
  !ok

(* Full O(d³) fallback: recompute Σ' = (Σ⁻¹ + λwwᵀ)⁻¹ and m' = Σ'θ₁'
   from scratch through the guarded (jitter-laddered) factorization,
   instead of trusting the Sherman-Morrison increment.  [t.theta1] must
   already hold θ₁'. *)
let recompute_full t ~lambda ~delta ~w ~sigma_prev =
  (* On failure the whole update is undone — Σ, θ₁ and m keep their
     pre-update values, so the class state stays self-consistent.
     [sigma_prev] is the reusable [scratch_sigma] buffer, so restoring is
     a pointer swap: the (possibly corrupted) Σ buffer becomes the next
     scratch. *)
  let frozen () =
    if t.sigma != sigma_prev then begin
      let corrupt = t.sigma in
      t.sigma <- sigma_prev;
      t.scratch_sigma <- corrupt
    end;
    Vec.axpy (-.lambda *. delta) w t.theta1;
    `Frozen
  in
  match Kernels.symmetric_inverse sigma_prev with
  | Error _ -> frozen ()
  | Ok prec ->
    Mat.rank1_update prec lambda w;
    (match Kernels.symmetric_inverse prec with
     | Error _ -> frozen ()
     | Ok sigma' ->
       t.sigma <- Mat.symmetrize sigma';
       Mat.mv_into ~dst:t.mean t.sigma t.theta1;
       `Recomputed)

let apply_quadratic t ~lambda ~delta ~w =
  let g = t.scratch_g in
  Mat.mv_into ~dst:g t.sigma w;
  let c = Vec.dot w g in
  let denom = 1.0 +. (lambda *. c) in
  (* Snapshot Σ into the reusable scratch (no per-update allocation). *)
  let sigma_prev = t.scratch_sigma in
  Mat.copy_into ~dst:sigma_prev t.sigma;
  if denom <= 0.0 then begin
    (* Indefinite in the Woodbury form: skip the O(d²) path entirely and
       let the guarded full recompute decide (its jitter ladder can
       still produce a valid posterior for λ slightly past −1/c). *)
    Vec.axpy (lambda *. delta) w t.theta1;
    recompute_full t ~lambda ~delta ~w ~sigma_prev
  end
  else begin
    (* Σ ← Σ − (λ/denom) g gᵀ  (Sherman-Morrison). *)
    Mat.rank1_update t.sigma (-.lambda /. denom) g;
    (* m ← Σ' θ₁' with θ₁' = θ₁ + λδw reduces to
       m + λ(δ − gᵀθ₁)/denom · g. *)
    let d_old = Vec.dot g t.theta1 in
    Vec.axpy (lambda *. delta) w t.theta1;
    if diag_healthy t.sigma then begin
      Vec.axpy (lambda *. (delta -. d_old) /. denom) g t.mean;
      `Sherman_morrison
    end
    else
      (* Positive definiteness lost to cancellation: fall back to the
         full recompute from the pre-update Σ (which also restores it on
         failure). *)
      recompute_full t ~lambda ~delta ~w ~sigma_prev
  end

let proj_mean t w = Vec.dot w t.mean

let proj_var t w = Mat.quad_form t.sigma w
