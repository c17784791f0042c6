open Sider_linalg

(* A loop, not [Array.map], whose closure boxes every entry. *)
let standardize v =
  let mean = Vec.mean v in
  let sd = sqrt (Vec.variance ~mean v) in
  let n = Array.length v in
  let out = Array.create_float n in
  if Float.equal sd 0.0 then
    for i = 0 to n - 1 do
      Array.unsafe_set out i (Array.unsafe_get v i -. mean)
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set out i ((Array.unsafe_get v i -. mean) /. sd)
    done;
  out
