(* [alloc-in-hot-loop] negative fixture: destinations preallocated
   outside the loop, [_into] siblings inside it, allocating calls only
   at top level, and one audited escape — must stay silent. *)

open Sider_linalg

let power_chain (ms : Mat.t array) (x : Mat.t) =
  let n, _ = Mat.dims x in
  let acc = Mat.copy x in
  let tmp = Mat.create n n in
  for i = 0 to Array.length ms - 1 do
    Mat.matmul_nt_into ~dst:tmp ms.(i) acc;
    Mat.copy_into ~dst:acc tmp
  done;
  acc

let one_shot_product (a : Mat.t) (b : Mat.t) = Mat.matmul a b

(* Cold path (runs once per session, not per sweep): the allocation is
   deliberate and audited. *)
let legacy_sum (ms : Mat.t list) (z : Mat.t) =
  (List.fold_left (fun acc m -> Mat.sub acc m) z ms)
  [@sider.allow "alloc-in-hot-loop"]
