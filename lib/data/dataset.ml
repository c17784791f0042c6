open Sider_linalg

type t = {
  name : string;
  matrix : Mat.t;
  columns : string array;
  labels : string array option;
}

let create ?(name = "data") ?labels ~columns matrix =
  let n, d = Mat.dims matrix in
  if Array.length columns <> d then
    invalid_arg "Dataset.create: column-name count does not match width";
  (match labels with
   | Some l when Array.length l <> n ->
     invalid_arg "Dataset.create: label count does not match rows"
   | _ -> ());
  { name; matrix; columns; labels }

let name t = t.name

let matrix t = t.matrix

let n_rows t = fst (Mat.dims t.matrix)

let n_cols t = snd (Mat.dims t.matrix)

let columns t = t.columns

let labels t = t.labels

let classes t =
  match t.labels with
  | None -> []
  | Some l ->
    Array.fold_left
      (fun acc x -> if List.mem x acc then acc else x :: acc)
      [] l
    |> List.rev

let class_indices t cls =
  match t.labels with
  | None -> [||]
  | Some l ->
    let out = ref [] in
    Array.iteri (fun i x -> if String.equal x cls then out := i :: !out) l;
    Array.of_list (List.rev !out)

let standardized t =
  let m = t.matrix in
  let means = Mat.col_means m in
  let vars = Mat.col_variances m in
  let sds = Array.map sqrt vars in
  let std = Mat.init (n_rows t) (n_cols t) (fun i j ->
      let centered = Mat.get m i j -. means.(j) in
      if sds.(j) = 0.0 then centered else centered /. sds.(j))
  in
  { t with matrix = std }

let with_matrix t m =
  if Mat.dims m <> Mat.dims t.matrix then
    invalid_arg "Dataset.with_matrix: shape change not allowed";
  { t with matrix = m }

let describe t =
  let cls = classes t in
  Printf.sprintf "%s: %d rows x %d cols%s" t.name (n_rows t) (n_cols t)
    (if cls = [] then ""
     else Printf.sprintf ", classes {%s}" (String.concat ", " cls))
