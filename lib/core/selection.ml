module Iset = Set.Make (Int)

type t = int array

let of_set s = Array.of_list (Iset.elements s)

let of_indices l = of_set (Iset.of_list l)

let in_rectangle session ~xmin ~xmax ~ymin ~ymax =
  Session.scatter session
  |> Array.to_list
  |> List.filter_map (fun p ->
      if p.Session.x >= xmin && p.Session.x <= xmax
         && p.Session.y >= ymin && p.Session.y <= ymax
      then Some p.Session.index
      else None)
  |> of_indices

let within_radius session ~center:(cx, cy) ~radius =
  Session.scatter session
  |> Array.to_list
  |> List.filter_map (fun p ->
      let dx = p.Session.x -. cx and dy = p.Session.y -. cy in
      if (dx *. dx) +. (dy *. dy) <= radius *. radius then
        Some p.Session.index
      else None)
  |> of_indices

let by_class session cls =
  Sider_data.Dataset.class_indices (Session.dataset session) cls

let size = Array.length

type store = (string, t) Hashtbl.t

let store_create () : store = Hashtbl.create 8

let save store name sel = Hashtbl.replace store name sel

let load store name = Hashtbl.find_opt store name
