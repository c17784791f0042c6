open Sider_linalg

(* A loop, not [Array.map], whose closure boxes every entry. *)
let standardize_into ~dst v =
  let n = Array.length v in
  if Array.length dst <> n then
    invalid_arg "Descriptive.standardize_into: length" [@sider.allow "error-discipline"];
  let mean = Vec.mean v in
  let sd = sqrt (Vec.variance ~mean v) in
  if Float.equal sd 0.0 then
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get v i -. mean)
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set dst i ((Array.unsafe_get v i -. mean) /. sd)
    done
