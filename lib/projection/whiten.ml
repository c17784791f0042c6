open Sider_linalg
open Sider_maxent
open Sider_robust
module Obs = Sider_obs.Obs
module Par = Sider_par.Par

(* Eigenvalues of Σ are floored at max(1e-12, 1e-10·λ_max). *)
let clamp = 1e-12

let class_transforms solver =
  Obs.with_span "whiten.transforms"
    ~attrs:[ ("classes", Obs.Int (Solver.n_classes solver)) ]
  @@ fun () ->
  let k = Solver.n_classes solver in
  let sigmas =
    Array.init k (fun c ->
        Mat.symmetrize (Solver.class_params solver c).Gauss_params.sigma)
  in
  (* Validation runs sequentially so the reported class is always the
     first bad one, independent of how the eigendecompositions are
     scheduled. *)
  Array.iteri
    (fun c sigma ->
      match Kernels.first_nonfinite_mat sigma with
      | Some (i, j) ->
        Sider_error.raise_
          (Sider_error.nan_detected ~class_index:c
             (Printf.sprintf "Whiten: Σ[%d,%d] is not finite" i j))
      | None -> ())
    sigmas;
  let out = Array.make k (Mat.create 0 0) in
  (* One O(d³) eigendecomposition per class; classes are independent. *)
  Par.parallel_for ~chunk:1 ~min:2 ~label:"whiten.transforms" ~n:k (fun c ->
      let dec = Eigen.symmetric sigmas.(c) in
      (* Σ^{-1/2} = U D^{-1/2} Uᵀ — the "rotate back" of Eq. 14.  The
         floor is relative to the leading eigenvalue (never below the
         absolute [clamp]), so a near-singular Σ is regularized into a
         large-but-bounded transform instead of exploding or raising. *)
      let lead = Array.fold_left Float.max 0.0 dec.Eigen.values in
      let floor_ = Float.max clamp (1e-10 *. lead) in
      out.(c) <- Eigen.power ~clamp:floor_ dec (-0.5));
  out

let whiten_with solver transforms m =
  let n, d = Mat.dims m in
  Obs.with_span "whiten.apply"
    ~attrs:[ ("rows", Obs.Int n); ("cols", Obs.Int d) ]
  @@ fun () ->
  let out = Mat.create n d in
  let part = Solver.partition solver in
  let ma = m.Mat.a and oa = out.Mat.a in
  (* Rows are independent.  The centering is fused into the transform's
     dot products — each (x_rj − m_j) is recomputed per use, which yields
     the same float as subtracting once into a scratch vector, so the
     result is bit-identical to center-then-[Mat.mv] while skipping the
     scratch writes entirely. *)
  Par.parallel_for_chunks ~label:"whiten.apply" ~n (fun lo hi ->
      for r = lo to hi - 1 do
        let cls = Partition.class_of_row part r in
        let p = Solver.class_params solver cls in
        let mean = p.Gauss_params.mean in
        let ta = transforms.(cls).Mat.a in
        let roff = r * d in
        for i = 0 to d - 1 do
          let toff = i * d in
          let acc = ref 0.0 in
          let j = ref 0 in
          while !j + 3 < d do
            let j0 = !j in
            acc :=
              !acc
              +. (Array.unsafe_get ta (toff + j0)
                  *. (Array.unsafe_get ma (roff + j0)
                      -. Array.unsafe_get mean j0));
            acc :=
              !acc
              +. (Array.unsafe_get ta (toff + j0 + 1)
                  *. (Array.unsafe_get ma (roff + j0 + 1)
                      -. Array.unsafe_get mean (j0 + 1)));
            acc :=
              !acc
              +. (Array.unsafe_get ta (toff + j0 + 2)
                  *. (Array.unsafe_get ma (roff + j0 + 2)
                      -. Array.unsafe_get mean (j0 + 2)));
            acc :=
              !acc
              +. (Array.unsafe_get ta (toff + j0 + 3)
                  *. (Array.unsafe_get ma (roff + j0 + 3)
                      -. Array.unsafe_get mean (j0 + 3)));
            j := j0 + 4
          done;
          while !j < d do
            acc :=
              !acc
              +. (Array.unsafe_get ta (toff + !j)
                  *. (Array.unsafe_get ma (roff + !j)
                      -. Array.unsafe_get mean !j));
            incr j
          done;
          Array.unsafe_set oa (roff + i) !acc
        done
      done);
  out

let whiten solver =
  Obs.with_span "whiten" @@ fun () ->
  whiten_with solver (class_transforms solver) (Solver.data solver)

let whiten_matrix solver m =
  if Mat.dims m <> Mat.dims (Solver.data solver) then
    invalid_arg "Whiten.whiten_matrix: shape mismatch with solver data" [@sider.allow "error-discipline"];
  Obs.with_span "whiten" @@ fun () ->
  whiten_with solver (class_transforms solver) m
