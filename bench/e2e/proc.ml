(* The service under test as a child process: `sider api` on an
   ephemeral port with a fresh data directory, stopped with SIGTERM (the
   API drains and exits) and reaped before the benchmark moves on. *)

module Http = Sider_serve.Http

type t = { pid : int; port : int; dir : string }

(* Children not yet reaped; killed by the [at_exit] hook if the
   benchmark dies early, so no service outlives it. *)
let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live;
  live := []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* The service's environment: the caller's, minus the knobs that change
   what the service computes or prints (domain count, trace sink). *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
      not
        (String.starts_with ~prefix:"SIDER_DOMAINS=" kv
         || String.starts_with ~prefix:"SIDER_TRACE=" kv))
  |> Array.of_list

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> forget pid; true
  | exception Unix.Unix_error _ -> forget pid; true

(* The API prints "session API on http://127.0.0.1:<port> (...)" once it
   is listening. *)
let port_of_banner s =
  let key = "http://127.0.0.1:" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length s then None
    else if String.sub s i kl = key then (
      let j = ref (i + kl) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub s (i + kl) (!j - i - kl)))
    else find (i + 1)
  in
  find 0

let now_s () = Unix.gettimeofday ()

let fail_with t what =
  let err = read_file (Filename.concat t.dir "service.err") in
  failwith (Printf.sprintf "service %s; stderr:\n%s" what err)

let stop t =
  if List.mem t.pid !live then (
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let give_up = now_s () +. 20.0 in
    while not (exited t.pid) && now_s () < give_up do Unix.sleepf 0.01 done;
    if List.mem t.pid !live then (
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap t.pid;
      forget t.pid))

(* Start `exe api --port 0 --data-dir <dir>/data <args>`, wait for its
   banner and for [/healthz] to answer 200. *)
let spawn ~exe ~dir args =
  Bench_common.ensure_dir dir;
  let data = Filename.concat dir "data" in
  rm_rf data;
  let out = Filename.concat dir "service.out" in
  let open_log p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_log out in
  let fd_err =
    try open_log (Filename.concat dir "service.err")
    with e -> Unix.close fd_out; raise e
  in
  let argv = Array.of_list (exe :: "api" :: "--port" :: "0" :: "--data-dir" :: data :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd_out; Unix.close fd_err)
      (fun () -> Unix.create_process_env exe argv (child_env ()) Unix.stdin fd_out fd_err)
  in
  live := pid :: !live;
  let t0 = { pid; port = 0; dir } in
  let give_up = now_s () +. 60.0 in
  let rec wait_port () =
    match port_of_banner (read_file out) with
    | Some port -> port
    | None ->
      if exited pid then fail_with t0 "exited before listening"
      else if now_s () > give_up then (stop t0; fail_with t0 "never listened")
      else (Unix.sleepf 0.002; wait_port ())
  in
  let t = { t0 with port = wait_port () } in
  let rec healthy () =
    match Http.request ~timeout_s:5.0 ~meth:"GET" ~port:t.port "/healthz" with
    | Ok { Http.status = 200; _ } -> ()
    | _ when now_s () > give_up -> stop t; fail_with t "never became healthy"
    | _ -> Unix.sleepf 0.002; healthy ()
  in
  healthy ();
  t

(* Peak resident set ([VmHWM]) of the service, in MiB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
      if String.starts_with ~prefix:"VmHWM:" line then
        Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      else None)
  |> Option.value ~default:0.0
