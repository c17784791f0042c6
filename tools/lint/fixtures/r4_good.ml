(* [obs-hygiene] negative fixture: the loop tallies locally and the
   writes, labeled or not, happen once after it — must stay silent. *)

let observe_per_batch (xs : float array) =
  let total = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    total := !total +. xs.(i)
  done;
  Sider_obs.Obs.observe "fixture.batch_sum" !total;
  Sider_obs.Obs.count ~by:(Array.length xs) "fixture.rows"

let summarize id total =
  Sider_obs.Obs.gauge "fixture.total" total;
  Sider_obs.Obs.count ~labels:[ ("tenant", id) ] "fixture.batches";
  Sider_obs.Obs.observe ~labels:[ ("tenant", id) ] "fixture.batch_s" 0.1
