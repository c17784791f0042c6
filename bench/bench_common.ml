(* Shared helpers for the experiment harness. *)

let artifacts_dir = "_artifacts/bench"

(* Create [path] and its missing parents.  Trailing separators are
   normalized away first (their dirname is the path itself, which used to
   loop or skip the leaf), existing prefixes — including the absolute
   root — are left alone, and a concurrent mkdir of the same directory
   (two bench binaries sharing _artifacts/) is tolerated instead of
   raising [Sys_error]. *)
let ensure_dir path =
  let rec strip p =
    let n = String.length p in
    if n > 1 && p.[n - 1] = '/' then strip (String.sub p 0 (n - 1)) else p
  in
  let rec mk p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      try Sys.mkdir p 0o755 with
      | Sys_error _ when (try Sys.is_directory p with Sys_error _ -> false)
        ->
        (* Lost a creation race: the directory exists now, which is all
           we wanted. *)
        ()
    end
  in
  mk (strip path)

let write_file path content =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let artifact name content =
  let path = Filename.concat artifacts_dir name in
  write_file path content;
  Printf.printf "  [artifact] %s\n%!" path

let header id title =
  Printf.printf "\n%s\n%!" (String.make 78 '=');
  Printf.printf "%s  %s\n%!" id title;
  Printf.printf "%s\n%!" (String.make 78 '=')

let subhead title = Printf.printf "\n--- %s ---\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

(* Paper-vs-measured comparison line. *)
let compare_line ~label ~paper ~ours =
  Printf.printf "  %-44s paper: %-14s ours: %s\n%!" label paper ours

(* A comparison line whose verdict [ok] is printed after [ours]; a false
   one makes bench/main.exe exit 1 once its experiments have run. *)
let failed_checks = ref []

let check_line ~label ~paper ~ours ok =
  compare_line ~label ~paper ~ours:(Printf.sprintf "%s (%b)" ours ok);
  if not ok then failed_checks := label :: !failed_checks

(* Collect the garbage left over from scenario setup before starting the
   clock, so the wall number measures the scenario body rather than a
   minor/major collection it happened to inherit.  Matters most for the
   sub-millisecond scenarios, whose timed region is shorter than one
   collection of the setup garbage. *)
let time_of f =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let median values =
  let v = Array.copy values in
  Array.sort compare v;
  let n = Array.length v in
  if n = 0 then nan
  else if n mod 2 = 1 then v.(n / 2)
  else 0.5 *. (v.((n / 2) - 1) +. v.(n / 2))

let runs_from_env ~default =
  match Sys.getenv_opt "SIDER_BENCH_RUNS" with
  | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> default)
  | None -> default

let full_grid () = Sys.getenv_opt "SIDER_BENCH_FULL" = Some "1"

let fmt_scores scores =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%+.3f") scores))
