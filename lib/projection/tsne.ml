open Sider_linalg
open Sider_rand

type params = {
  dims : int;
  perplexity : float;
  iterations : int;
  learning_rate : float;
  exaggeration : float;
}

let default_params =
  { dims = 2; perplexity = 30.0; iterations = 500; learning_rate = 0.0;
    exaggeration = 12.0 }

let squared_distances m =
  let n, _ = Mat.dims m in
  let d2 = Mat.create n n in
  for i = 0 to n - 1 do
    let ri = Mat.row m i in
    for j = i + 1 to n - 1 do
      let d = Vec.dist2 ri (Mat.row m j) in
      let v = d *. d in
      Mat.set d2 i j v;
      Mat.set d2 j i v
    done
  done;
  d2

(* Conditional distribution p(j|i) with bandwidth found by binary search
   so that its perplexity matches the target. *)
let conditional_row d2 i n target_log_perp =
  let row = Array.init n (fun j -> Mat.get d2 i j) in
  let p = Array.make n 0.0 in
  let entropy_of beta =
    (* H(P_i) and the unnormalized weights for precision beta. *)
    let sum = ref 0.0 and dot = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then begin
        let w = exp (-.row.(j) *. beta) in
        p.(j) <- w;
        sum := !sum +. w;
        dot := !dot +. (w *. row.(j))
      end
      else p.(j) <- 0.0
    done;
    if !sum <= 0.0 then neg_infinity
    else log !sum +. (beta *. !dot /. !sum)
  in
  let beta = ref 1.0 and lo = ref neg_infinity and hi = ref infinity in
  let iter = ref 0 in
  let h = ref (entropy_of !beta) in
  while Float.abs (!h -. target_log_perp) > 1e-5 && !iter < 50 do
    incr iter;
    if !h > target_log_perp then begin
      lo := !beta;
      beta :=
        if Float.equal !hi infinity then !beta *. 2.0
        else 0.5 *. (!beta +. !hi)
    end
    else begin
      hi := !beta;
      beta :=
        if Float.equal !lo neg_infinity then !beta /. 2.0
        else 0.5 *. (!beta +. !lo)
    end;
    h := entropy_of !beta
  done;
  let sum = Array.fold_left ( +. ) 0.0 p in
  if sum > 0.0 then
    for j = 0 to n - 1 do
      p.(j) <- p.(j) /. sum
    done;
  p

let joint_affinities ?(params = default_params) m =
  let n, _ = Mat.dims m in
  let d2 = squared_distances m in
  let target = log params.perplexity in
  let p = Mat.create n n in
  for i = 0 to n - 1 do
    let row = conditional_row d2 i n target in
    for j = 0 to n - 1 do
      Mat.set p i j row.(j)
    done
  done;
  (* Symmetrize: p_ij = (p(j|i) + p(i|j)) / 2n, floored for stability. *)
  let fn = float_of_int n in
  Mat.init n n (fun i j ->
      if i = j then 0.0
      else Float.max ((Mat.get p i j +. Mat.get p j i) /. (2.0 *. fn)) 1e-12)

let low_dim_affinities emb =
  let n, _ = Mat.dims emb in
  let q = Mat.create n n in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let ri = Mat.row emb i in
    for j = i + 1 to n - 1 do
      let d = Vec.dist2 ri (Mat.row emb j) in
      let w = 1.0 /. (1.0 +. (d *. d)) in
      Mat.set q i j w;
      Mat.set q j i w;
      total := !total +. (2.0 *. w)
    done
  done;
  (q, Float.max !total 1e-300)

let fit ?(params = default_params) rng m =
  let n, _ = Mat.dims m in
  if float_of_int n <= 3.0 *. params.perplexity then
    invalid_arg "Tsne.fit: perplexity too large for n" [@sider.allow "error-discipline"];
  let p = joint_affinities ~params m in
  (* learning_rate = 0 selects the scikit-learn 'auto' rate
     max(n / (4·exaggeration), 50). *)
  let learning_rate =
    if params.learning_rate > 0.0 then params.learning_rate
    else Float.max (float_of_int n /. (4.0 *. params.exaggeration)) 50.0
  in
  let emb =
    Mat.init n params.dims (fun _ _ -> 1e-4 *. Sampler.normal rng)
  in
  let update = Mat.create n params.dims in
  let gains = Mat.init n params.dims (fun _ _ -> 1.0) in
  let exaggeration_end = params.iterations / 4 in
  for it = 1 to params.iterations do
    let exag = if it <= exaggeration_end then params.exaggeration else 1.0 in
    let q, qsum = low_dim_affinities emb in
    (* Full synchronous gradient:
       dC/dy_i = 4 Σ_j (exag·p_ij − q_ij/qsum) w_ij (y_i − y_j);
       in-place (Gauss-Seidel) updates destabilize the momentum/gain
       scheme, so the whole gradient is computed before any move. *)
    let grad = Mat.create n params.dims in
    for i = 0 to n - 1 do
      let gi = Array.make params.dims 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          let w = Mat.get q i j in
          let coeff = ((exag *. Mat.get p i j) -. (w /. qsum)) *. w in
          for k = 0 to params.dims - 1 do
            gi.(k) <- gi.(k) +. (coeff *. (Mat.get emb i k -. Mat.get emb j k))
          done
        end
      done;
      for k = 0 to params.dims - 1 do
        Mat.set grad i k (4.0 *. gi.(k))
      done
    done;
    let momentum = if it <= exaggeration_end then 0.5 else 0.8 in
    for i = 0 to n - 1 do
      for k = 0 to params.dims - 1 do
        let g = Mat.get grad i k in
        let u = Mat.get update i k in
        (* Per-parameter gains (Jacobs): grow when gradient and velocity
           disagree in sign, shrink otherwise. *)
        let gain =
          let old = Mat.get gains i k in
          if g *. u < 0.0 then old +. 0.2 else Float.max 0.01 (old *. 0.8)
        in
        Mat.set gains i k gain;
        let u' = (momentum *. u) -. (learning_rate *. gain *. g) in
        Mat.set update i k u';
        Mat.set emb i k (Mat.get emb i k +. u')
      done
    done;
    (* Keep the embedding centered. *)
    let means = Mat.col_means emb in
    for i = 0 to n - 1 do
      for k = 0 to params.dims - 1 do
        Mat.set emb i k (Mat.get emb i k -. means.(k))
      done
    done
  done;
  emb
