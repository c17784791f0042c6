(* [obs-hygiene] positive fixture: by-name metric writes inside loops,
   labeled or not — each pays a registry hash + mutex per iteration. *)

let observe_per_row (xs : float array) =
  for i = 0 to Array.length xs - 1 do
    Sider_obs.Obs.observe "fixture.row" xs.(i)
  done

let count_per_element (xs : float array) =
  Array.iter (fun _ -> Sider_obs.Obs.count "fixture.seen") xs

let gauge_in_while n =
  let i = ref 0 in
  while !i < n do
    Sider_obs.Obs.gauge "fixture.progress" (float_of_int !i);
    incr i
  done

let count_per_tenant (ids : string array) =
  Array.iter
    (fun id -> Sider_obs.Obs.count ~labels:[ ("tenant", id) ] "fixture.rows")
    ids

let observe_per_step (xs : float array) =
  for i = 0 to Array.length xs - 1 do
    Sider_obs.Obs.observe ~labels:[ ("stage", "solve") ] "fixture.step_s"
      xs.(i)
  done
