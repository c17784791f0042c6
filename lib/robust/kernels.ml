open Sider_linalg

(* The escalating relative diagonal-jitter ladder: 0 (no repair), then
   1e-10 up to 1e-4. *)
let ladder = [| 0.0; 1e-10; 1e-8; 1e-6; 1e-4 |]

let finite_vec v =
  let ok = ref true in
  for i = 0 to Array.length v - 1 do
    if not (Float.is_finite v.(i)) then ok := false
  done;
  !ok

let finite_mat m =
  let n, d = Mat.dims m in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      if not (Float.is_finite (Mat.get m i j)) then ok := false
    done
  done;
  !ok

let first_nonfinite_mat m =
  let n, d = Mat.dims m in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       for j = 0 to d - 1 do
         if not (Float.is_finite (Mat.get m i j)) then begin
           found := Some (i, j);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let diag_scale a =
  let n, _ = Mat.dims a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (Mat.get a i i)
  done;
  Float.max 1.0 (!acc /. float_of_int (Stdlib.max 1 n))

let with_jitter a jitter =
  if jitter = 0.0 then a
  else begin
    let n, _ = Mat.dims a in
    let out = Mat.copy a in
    for i = 0 to n - 1 do
      Mat.set out i i (Mat.get out i i +. jitter)
    done;
    out
  end

(* A strict Cholesky factor of the symmetrized [a], retrying with each
   rung of the ladder added to the diagonal (scaled by the mean absolute
   diagonal of [a], so the ladder is meaningful at any scale). *)
let chol_factor a =
  let n, m = Mat.dims a in
  if n <> m then
    Error (Sider_error.degenerate_data "chol_factor: matrix not square")
  else
    match first_nonfinite_mat a with
    | Some (i, j) ->
      Error
        (Sider_error.nan_detected
           (Printf.sprintf "chol_factor: non-finite entry at (%d,%d)" i j))
    | None ->
      let sym = Mat.symmetrize a in
      let scale = diag_scale sym in
      let rec attempt k =
        if k >= Array.length ladder then
          Error
            (Sider_error.singular_covariance
               (Printf.sprintf
                  "chol_factor: not positive definite after jitter ladder \
                   (max %g)"
                  (ladder.(Array.length ladder - 1) *. scale)))
        else begin
          let jitter = ladder.(k) *. scale in
          match Chol.decompose (with_jitter sym jitter) with
          | l -> Ok l
          | exception Chol.Not_positive_definite -> attempt (k + 1)
        end
      in
      attempt 0

let symmetric_inverse a = Result.map Chol.inverse (chol_factor a)
