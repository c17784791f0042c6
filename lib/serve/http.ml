(* Minimal HTTP/1.1 message layer shared by the metrics endpoint, the
   session service and the load generator: request parsing with hard
   limits and receive-timeout awareness, response writing, and a small
   blocking client.  Connections are persistent (keep-alive) on both
   sides: the server reads Content-Length-delimited requests in a loop
   through a buffered [reader] (so pipelined bytes are never lost
   between requests), and the [client] reuses one socket across
   requests until either side sends [Connection: close].  No external
   dependencies. *)

let max_header_bytes = 16 * 1024

type request = {
  meth : string;
  path : string;
  query : string;
  headers : (string * string) list;
  body : string;
}

type read_error =
  | Timeout
  | Closed
  | Too_large
  | Malformed of string

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  (try
     while !sent < n do
       sent := !sent + Unix.write_substring fd s !sent (n - !sent)
     done
   with Unix.Unix_error _ -> ())

let respond ?(headers = []) ~status ?(content_type = "application/json")
    ?(keep_alive = false) fd body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)

(* --- trace context --------------------------------------------------------- *)

(* Every request through the session service carries a trace id: the
   client's [X-Sider-Trace-Id] when it sent one (sanitized — the id is
   echoed into response headers, JSON access-log lines and flight-dump
   headers, so hostile bytes must not pass through), otherwise a fresh
   id.  Generation is an atomic counter plus the [Obs] clock rather
   than a PRNG: unique within a process lifetime, and free of ambient
   randomness. *)

let trace_header = "x-sider-trace-id"

let trace_response_header = "X-Sider-Trace-Id"

let trace_counter = Atomic.make 0

let fresh_trace_id () =
  Printf.sprintf "t-%Lx-%x"
    (Sider_obs.Obs.now_ns ())
    (Atomic.fetch_and_add trace_counter 1)

let trace_char_ok = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
  | _ -> false

let trace_of_request (req : request) =
  match List.assoc_opt trace_header req.headers with
  | None -> None
  | Some raw ->
    let raw =
      if String.length raw > 128 then String.sub raw 0 128 else raw
    in
    if raw = "" then None
    else Some (String.map (fun c -> if trace_char_ok c then c else '_') raw)

(* --- request parsing ------------------------------------------------------- *)

let find_crlfcrlf s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let parse_headers lines =
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ -> acc
      | Ok hs ->
        (match String.index_opt line ':' with
         | None -> Error (Malformed ("header without colon: " ^ line))
         | Some i ->
           let k = String.lowercase_ascii (String.sub line 0 i) in
           let v =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           Ok ((k, v) :: hs)))
    (Ok []) lines
  |> Result.map List.rev

let split_head_lines head =
  String.split_on_char '\n' head
  |> List.map (fun l ->
      match String.index_opt l '\r' with
      | Some i -> String.sub l 0 i
      | None -> l)

(* A Content-Length value (already trimmed by [parse_headers]): ASCII
   digits only.  [int_of_string] alone would also read a sign, [_]
   separators and the 0x/0o/0b/0u prefixes. *)
let content_length_of v =
  if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then
    int_of_string_opt v
  else None

(* The message's Content-Length: [Ok None] without the field.  Repeated
   fields with identical values read as one value (RFC 9110 §8.6);
   differing values are an error, as is a value that is not all digits,
   a comma list included (RFC 9112 §6.3). *)
let content_length headers =
  match
    List.filter_map
      (fun (k, v) -> if k = "content-length" then Some v else None)
      headers
  with
  | [] -> Ok None
  | v :: rest when List.for_all (String.equal v) rest ->
    (match content_length_of v with
     | Some n -> Ok (Some n)
     | None -> Error ("bad content-length: " ^ v))
  | vs -> Error ("bad content-length: " ^ String.concat ", " vs)

let connection_is_close headers =
  match List.assoc_opt "connection" headers with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

let wants_close (req : request) = connection_is_close req.headers

(* Read from [fd] (starting from [initial], bytes already read past the
   previous message on this connection) until the header block is
   complete, then exactly the declared body.  The caller is expected to
   have set [SO_RCVTIMEO]; a timed-out [read] surfaces as [Timeout]
   (the 408 path), EOF before a complete message as [Closed], and
   oversized headers/bodies as [Too_large] — a slow or malicious client
   can cost at most one worker's timeout, never unbounded memory.  On
   success also returns the leftover bytes beyond the parsed request
   (the start of a pipelined successor). *)
let read_request_from ?(max_body = 8 * 1024 * 1024) ~initial fd =
  let chunk = Bytes.create 8192 in
  let acc = Buffer.create 1024 in
  Buffer.add_string acc initial;
  let read_more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n -> Buffer.add_subbytes acc chunk 0 n; `More
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Timeout
    | exception Unix.Unix_error _ -> `Eof
  in
  let rec read_head () =
    match find_crlfcrlf (Buffer.contents acc) with
    | Some i -> Ok i
    | None ->
      if Buffer.length acc > max_header_bytes then Error Too_large
      else (
        match read_more () with
        | `More -> read_head ()
        | `Timeout -> Error Timeout
        | `Eof -> Error Closed)
  in
  match read_head () with
  | Error e -> Error e
  | Ok head_end ->
    let head = Buffer.sub acc 0 head_end in
    (match split_head_lines head with
     | [] -> Error (Malformed "empty request")
     | request_line :: header_lines ->
       (match String.split_on_char ' ' request_line with
        | meth :: target :: _ ->
          (match parse_headers (List.filter (fun l -> l <> "") header_lines)
           with
           | Error e -> Error e
           | Ok headers ->
             let path, query =
               match String.index_opt target '?' with
               | Some i ->
                 ( String.sub target 0 i,
                   String.sub target (i + 1) (String.length target - i - 1) )
               | None -> (target, "")
             in
             (match
                Result.map (Option.value ~default:0) (content_length headers)
              with
              | Error m -> Error (Malformed m)
              | Ok len when len > max_body -> Error Too_large
              | Ok len ->
                let body_start = head_end + 4 in
                let rec read_body () =
                  if Buffer.length acc - body_start >= len then
                    Ok (String.sub (Buffer.contents acc) body_start len)
                  else (
                    match read_more () with
                    | `More -> read_body ()
                    | `Timeout -> Error Timeout
                    | `Eof -> Error Closed)
                in
                Result.map
                  (fun body ->
                    let total = body_start + len in
                    let leftover =
                      String.sub (Buffer.contents acc) total
                        (Buffer.length acc - total)
                    in
                    ({ meth; path; query; headers; body }, leftover))
                  (read_body ())))
        | _ -> Error (Malformed ("bad request line: " ^ request_line))))

(* --- buffered per-connection reader ---------------------------------------- *)

type reader = {
  r_fd : Unix.file_descr;
  mutable r_pending : string;
}

let reader fd = { r_fd = fd; r_pending = "" }

let reader_has_pending r = r.r_pending <> ""

let read_request_buffered ?max_body r =
  match read_request_from ?max_body ~initial:r.r_pending r.r_fd with
  | Ok (req, leftover) ->
    r.r_pending <- leftover;
    Ok req
  | Error e ->
    r.r_pending <- "";
    Error e

(* --- client ---------------------------------------------------------------- *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let header resp k = List.assoc_opt (String.lowercase_ascii k) resp.r_headers

let no_response = "connection closed without a response"

(* Read one response starting from [initial].  Returns the response,
   whether the server announced [Connection: close], and the leftover
   bytes beyond this response's body.  A response without a
   [Content-Length] is drained to EOF (and the connection is done). *)
let read_response_from ~initial fd =
  let acc = Buffer.create 4096 in
  Buffer.add_string acc initial;
  let chunk = Bytes.create 4096 in
  let read_more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n -> Buffer.add_subbytes acc chunk 0 n; `More
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      `Eof
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Timeout
    | exception Unix.Unix_error (err, _, _) ->
      `Err (Unix.error_message err)
  in
  let rec read_head () =
    match find_crlfcrlf (Buffer.contents acc) with
    | Some i -> Ok i
    | None ->
      (match read_more () with
       | `More -> read_head ()
       | `Timeout -> Error "timeout waiting for response"
       | `Err m -> Error m
       | `Eof ->
         if Buffer.length acc = 0 then Error no_response
         else Error "truncated response")
  in
  match read_head () with
  | Error e -> Error e
  | Ok head_end ->
    let head = Buffer.sub acc 0 head_end in
    (match split_head_lines head with
     | [] -> Error "empty response"
     | status_line :: header_lines ->
       let status =
         match String.split_on_char ' ' status_line with
         | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
         | _ -> 0
       in
       let r_headers =
         match
           parse_headers (List.filter (fun l -> l <> "") header_lines)
         with
         | Ok hs -> hs
         | Error _ -> []
       in
       let body_start = head_end + 4 in
       (match content_length r_headers with
        | Error e -> Error e
        | Ok None ->
          let rec drain () =
            match read_more () with
            | `More -> drain ()
            | `Eof -> Ok ()
            | `Timeout -> Error "timeout waiting for response"
            | `Err m -> Error m
          in
          (match drain () with
           | Error e -> Error e
           | Ok () ->
             let raw = Buffer.contents acc in
             Ok
               ( { status;
                   r_headers;
                   r_body =
                     String.sub raw body_start (String.length raw - body_start)
                 },
                 `Close,
                 "" ))
        | Ok (Some len) ->
          let rec read_body () =
            if Buffer.length acc - body_start >= len then Ok ()
            else (
              match read_more () with
              | `More -> read_body ()
              | `Timeout -> Error "timeout waiting for response"
              | `Err m -> Error m
              | `Eof -> Error "truncated response")
          in
          (match read_body () with
           | Error e -> Error e
           | Ok () ->
             let raw = Buffer.contents acc in
             let r_body = String.sub raw body_start len in
             let leftover =
               String.sub raw (body_start + len)
                 (String.length raw - body_start - len)
             in
             let conn =
               if connection_is_close r_headers then `Close else `Keep
             in
             Ok ({ status; r_headers; r_body }, conn, leftover))))

type client = {
  c_port : int;
  c_timeout_s : float;
  mutable c_sock : Unix.file_descr option;
  mutable c_pending : string;
}

let client ?(timeout_s = 30.0) ~port () =
  { c_port = port; c_timeout_s = timeout_s; c_sock = None; c_pending = "" }

let client_close c =
  (match c.c_sock with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  c.c_sock <- None;
  c.c_pending <- ""

(* Returns the live socket plus whether it was opened just now (a fresh
   socket cannot be a stale keep-alive connection, so failures on it
   are not retried). *)
let client_sock c =
  match c.c_sock with
  | Some fd -> Ok (fd, false)
  | None ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.setsockopt_float sock Unix.SO_RCVTIMEO c.c_timeout_s;
       Unix.setsockopt_float sock Unix.SO_SNDTIMEO c.c_timeout_s;
       Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, c.c_port))
     with
     | () ->
       c.c_sock <- Some sock;
       c.c_pending <- "";
       Ok (sock, true)
     | exception Unix.Unix_error (err, _, _) ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       Error (Printf.sprintf "connect: %s" (Unix.error_message err)))

let send_request ~headers ?body ~meth fd path =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n" meth path);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  (match body with
   | Some body ->
     Buffer.add_string b
       (Printf.sprintf "Content-Length: %d\r\n" (String.length body))
   | None -> ());
  Buffer.add_string b "\r\n";
  (match body with Some body -> Buffer.add_string b body | None -> ());
  write_all fd (Buffer.contents b)

(* Methods safe to re-send automatically.  A reused connection that
   closes without a response usually means the server idle-closed it
   between our send and its read — but it can also mean the server
   died {e after} processing (journal-then-crash), so only requests
   whose repeat is harmless get the transparent retry; non-idempotent
   callers see the transport error and apply their own policy. *)
let idempotent = function
  | "GET" | "HEAD" | "PUT" | "DELETE" | "OPTIONS" -> true
  | _ -> false

let client_request ?(headers = []) ?body c ~meth path =
  let rec attempt ~can_retry =
    match client_sock c with
    | Error e -> Error e
    | Ok (fd, fresh) ->
      send_request ~headers ?body ~meth fd path;
      (match read_response_from ~initial:c.c_pending fd with
       | Error e when String.equal e no_response && (not fresh) && can_retry ->
         (* Stale keep-alive connection: retry once on a fresh socket
            (a genuinely dead server fails the retry's connect
            instead).  Only reached for idempotent methods — a POST
            may have been journaled and applied just before the
            connection died, and re-sending it would double-apply. *)
         client_close c;
         attempt ~can_retry:false
       | Error e ->
         client_close c;
         Error e
       | Ok (resp, conn, leftover) ->
         (match conn with
          | `Close -> client_close c
          | `Keep -> c.c_pending <- leftover);
         Ok resp)
  in
  attempt ~can_retry:(idempotent meth)

(* One request per connection: a keep-alive client round trip with
   [Connection: close] requested, mirroring the pre-keep-alive
   behaviour.  [Error] covers transport-level failures only — connect
   refused, timeout, a connection dropped before any status line (the
   [Svc_drop_request] signature); an HTTP error status is a normal
   [Ok] response. *)
let request ?(headers = []) ?body ?(timeout_s = 30.0) ~meth ~port path =
  let c = client ~timeout_s ~port () in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  client_request
    ~headers:(("Connection", "close") :: headers)
    ?body c ~meth path
