(* [obs-hygiene] negative fixture: a preregistered handle inside the
   loop, by-name lookups only outside loops — must stay silent. *)

let row_hist = Sider_obs.Obs.labeled_hist "fixture.row" []

let observe_per_row (xs : float array) =
  for i = 0 to Array.length xs - 1 do
    Sider_obs.Obs.observe_into row_hist xs.(i)
  done

let summarize total =
  Sider_obs.Obs.gauge "fixture.total" total;
  Sider_obs.Obs.count "fixture.batches"
