module Iset = Set.Make (Int)

let jaccard a b =
  let sa = Iset.of_list (Array.to_list a) in
  let sb = Iset.of_list (Array.to_list b) in
  let union = Iset.union sa sb in
  if Iset.is_empty union then 1.0
  else
    float_of_int (Iset.cardinal (Iset.inter sa sb))
    /. float_of_int (Iset.cardinal union)

let class_members labels cls =
  let out = ref [] in
  Array.iteri (fun i l -> if String.equal l cls then out := i :: !out) labels;
  Array.of_list (List.rev !out)

let jaccard_to_class ~selection ~labels cls =
  jaccard selection (class_members labels cls)

let best_class_match ~selection ~labels =
  let classes =
    Array.fold_left
      (fun acc l -> if List.mem l acc then acc else l :: acc)
      [] labels
    |> List.rev
  in
  classes
  |> List.map (fun cls -> (cls, jaccard_to_class ~selection ~labels cls))
  |> List.sort (fun (_, a) (_, b) -> compare b a)
