(* Minimal HTTP/1.1 message layer shared by the metrics endpoint, the
   session service and the load generator: request parsing with hard
   limits and receive-timeout awareness, responses framed in place in
   the buffer their body was printed into, and a small blocking client.  Connections are persistent (keep-alive) on both
   sides: the server reads Content-Length-delimited requests in a loop
   through a buffered [reader] (so pipelined bytes are never lost
   between requests), and the [client] reuses one socket across
   requests until either side sends [Connection: close].  No external
   dependencies. *)

module Json = Sider_data.Json

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

(* [b.[pos .. pos+len-1]] to [fd]; false when a write fails (the peer
   is gone, or [SO_SNDTIMEO] ran out). *)
let write_all fd b pos len =
  let rec go pos len =
    len = 0
    ||
    match Unix.write fd b pos len with
    | k -> go (pos + k) (len - k)
    | exception Unix.Unix_error _ -> false
  in
  go pos len

(* --- responses --------------------------------------------------------------- *)

(* A response is framed in the buffer its body was printed into.  The
   body starts [gap] bytes in; the status line and headers are written
   right-aligned into the end of the gap, and head and body go out with
   one write from the head's first byte.  The longest head the service
   sends is about 300 bytes: a 503's status line, the text content type,
   a 128-byte trace id, [Retry-After] and the connection line. *)
let gap = 512

let gap_filler = String.make gap ' '

let start_body w =
  Json.clear w;
  Json.write_raw w gap_filler

let body_text w = Bytes.sub_string (Json.bytes w) gap (Json.length w - gap)

(* The number of decimal digits of [v], 0 ≤ v < 10^18. *)
let decimal_digits v =
  let n = ref 1 and p = ref 10 in
  while v >= !p && !n < 18 do
    incr n;
    p := !p * 10
  done;
  !n

(* Writes [s] at [pos]; returns the position after it. *)
let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* Writes the decimal digits of [v] ≥ 0 at [pos], as [%d] prints them. *)
let put_int b pos v =
  let n = decimal_digits v in
  let rec go k v =
    Bytes.unsafe_set b k (Char.unsafe_chr (48 + (v mod 10)));
    if k > pos then go (k - 1) (v / 10)
  in
  go (pos + n - 1) v;
  pos + n

let respond ?(headers = []) ~status ~content_type ~keep_alive fd w =
  let b = Json.bytes w and len = Json.length w in
  let body = len - gap in
  let reason = reason status in
  let connection =
    if keep_alive then "Connection: keep-alive\r\n\r\n"
    else "Connection: close\r\n\r\n"
  in
  let head =
    List.fold_left
      (fun n (k, v) -> n + String.length k + String.length v + 4)
      (String.length "HTTP/1.1 " + decimal_digits status + 1
       + String.length reason + 2
       + String.length "Content-Type: " + String.length content_type + 2
       + String.length "Content-Length: " + decimal_digits body + 2
       + String.length connection)
      headers
  in
  if body < 0 || head > gap then
    invalid_arg "Http.respond: no body started, or a head longer than the gap";
  let start = gap - head in
  let p = put b start "HTTP/1.1 " in
  let p = put_int b p status in
  let p = put b p " " in
  let p = put b p reason in
  let p = put b p "\r\nContent-Type: " in
  let p = put b p content_type in
  let p = put b p "\r\nContent-Length: " in
  let p = put_int b p body in
  let p = put b p "\r\n" in
  let p =
    List.fold_left
      (fun p (k, v) -> put b (put b (put b (put b p k) ": ") v) "\r\n")
      p headers
  in
  ignore (put b p connection);
  write_all fd b start (len - start)

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

(* --- reading messages ------------------------------------------------------ *)

(* Both sides read a message the same way: {!read_head} reads up to the
   blank line that ends the head, {!read_body} then fills one buffer of
   the declared length.  Each side keeps only its start-line parse and
   its own mapping of the failures below. *)

type io_fail =
  | Io_timeout  (* a read hit [SO_RCVTIMEO] *)
  | Io_eof of int  (* EOF or a reset, after [pos] bytes of the buffer *)
  | Io_error of Unix.error
  | Io_too_large  (* no blank line within [max_header_bytes] *)

let read_into fd b pos len =
  match Unix.read fd b pos len with
  | 0 -> Error (Io_eof pos)
  | k -> Ok k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Error Io_timeout
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    Error (Io_eof pos)
  | exception Unix.Unix_error (e, _, _) -> Error (Io_error e)

(* The bytes read for one message: [initial] (read past the previous
   message on this connection), then reads of up to 8 KiB. *)
type inbuf = { mutable b : Bytes.t; mutable len : int }

let read_more fd ib =
  if Bytes.length ib.b - ib.len < 8192 then begin
    let nb = Bytes.create (2 * Bytes.length ib.b + 8192) in
    Bytes.blit ib.b 0 nb 0 ib.len;
    ib.b <- nb
  end;
  Result.map (fun k -> ib.len <- ib.len + k) (read_into fd ib.b ib.len 8192)

(* The first "\r\n\r\n" at or after [from]. *)
let find_blank_line b ~from len =
  let rec go i =
    if i + 3 >= len then None
    else if
      Bytes.unsafe_get b i = '\r'
      && Bytes.unsafe_get b (i + 1) = '\n'
      && Bytes.unsafe_get b (i + 2) = '\r'
      && Bytes.unsafe_get b (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go from

(* Reads until the head is complete and returns the bytes read and the
   offset of its blank line.  Each read's bytes are searched once (with
   the three before them, for a blank line split across reads); at most
   [max_header_bytes] plus one read are held without a blank line. *)
let read_head ~initial fd =
  let ib = { b = Bytes.of_string initial; len = String.length initial } in
  let rec go from =
    match find_blank_line ib.b ~from ib.len with
    | Some i -> Ok (ib, i)
    | None when ib.len > max_header_bytes -> Error Io_too_large
    | None ->
      let scanned = max 0 (ib.len - 3) in
      Result.bind (read_more fd ib) (fun () -> go scanned)
  in
  go 0

(* The head's start line and its "name: value" fields, names lowercased
   and values trimmed. *)
let parse_head ib head_end =
  let lines =
    String.split_on_char '\n' (Bytes.sub_string ib.b 0 head_end)
    |> List.map (fun l ->
        match String.index_opt l '\r' with
        | Some i -> String.sub l 0 i
        | None -> l)
  in
  let field line =
    match String.index_opt line ':' with
    | None -> Error ("header without colon: " ^ line)
    | Some i ->
      Ok
        ( String.lowercase_ascii (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  in
  match lines with
  | [] -> Error "empty head"
  | start :: rest ->
    List.fold_left
      (fun acc line ->
        match acc with
        | Error _ -> acc
        | Ok hs when line = "" -> Ok hs
        | Ok hs -> Result.map (fun h -> h :: hs) (field line))
      (Ok []) rest
    |> Result.map (fun hs -> (start, List.rev hs))

(* [len] body bytes: the bytes already read past the head, then reads
   straight into the rest of the buffer, never past [len].  The buffer
   starts at the bytes in hand plus [body_step] and doubles, up to [len],
   as bytes arrive: a peer that declares more than it sends costs what
   it sends, and a body of up to [body_step] lands in one buffer of
   exactly [len].  Also returns the bytes read past the body (the start
   of a pipelined successor). *)
let body_step = 1 lsl 20

let read_body fd ib ~head_end len =
  let start = head_end + 4 in
  let have = min len (ib.len - start) in
  let body = ref (Bytes.create (min len (have + body_step))) in
  Bytes.blit ib.b start !body 0 have;
  let rec fill filled =
    if filled = len then Ok ()
    else begin
      if filled = Bytes.length !body then begin
        let grown = Bytes.create (min len (2 * filled)) in
        Bytes.blit !body 0 grown 0 filled;
        body := grown
      end;
      match read_into fd !body filled (Bytes.length !body - filled) with
      | Ok k -> fill (filled + k)
      | Error e -> Error e
    end
  in
  Result.map
    (fun () ->
      ( Bytes.unsafe_to_string !body,
        Bytes.sub_string ib.b (start + have) (ib.len - start - have) ))
    (fill have)

(* A Content-Length value (already trimmed by [parse_head]): ASCII
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

(* --- the server's side ----------------------------------------------------- *)

(* One request, starting from [initial].  The caller is expected to have
   set [SO_RCVTIMEO]; a timed-out read surfaces as [Timeout] (the 408
   path), EOF or a socket error before a complete message as [Closed],
   and oversized headers or bodies as [Too_large] — a slow or malicious
   client can cost at most one worker's timeout, never unbounded memory.
   On success also returns the bytes read past the request. *)
let read_request_from ?(max_body = 8 * 1024 * 1024) ~initial fd =
  let fail = function
    | Io_timeout -> Timeout
    | Io_too_large -> Too_large
    | Io_eof _ | Io_error _ -> Closed
  in
  match read_head ~initial fd with
  | Error e -> Error (fail e)
  | Ok (ib, head_end) ->
    let parsed =
      Result.bind (parse_head ib head_end) (fun (line, headers) ->
          match String.split_on_char ' ' line with
          | meth :: target :: _ ->
            Result.map
              (fun len -> (meth, target, headers, Option.value ~default:0 len))
              (content_length headers)
          | _ -> Error ("bad request line: " ^ line))
    in
    (match parsed with
     | Error m -> Error (Malformed m)
     | Ok (_, _, _, len) when len > max_body -> Error Too_large
     | Ok (meth, target, headers, len) ->
       let path, query =
         match String.index_opt target '?' with
         | Some i ->
           ( String.sub target 0 i,
             String.sub target (i + 1) (String.length target - i - 1) )
         | None -> (target, "")
       in
       (match read_body fd ib ~head_end len with
        | Error e -> Error (fail e)
        | Ok (body, leftover) ->
          Ok ({ meth; path; query; headers; body }, leftover)))

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

(* --- the client's side ----------------------------------------------------- *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let no_response = "connection closed without a response"

(* The status code of a status line: exactly three ASCII digits after
   the version. *)
let status_of_line line =
  match String.split_on_char ' ' line with
  | _ :: code :: _
    when String.length code = 3
         && String.for_all (fun c -> c >= '0' && c <= '9') code ->
    Ok (int_of_string code)
  | _ -> Error ("malformed status line: " ^ line)

(* One response, starting from [initial]: the response, whether the
   server announced [Connection: close], and the bytes read past it.  A
   response without a [Content-Length] is drained to EOF (and the
   connection is done).  A reset reads as EOF; EOF before any byte of
   the response is [no_response], which the idempotent retry keys on. *)
let read_response_from ~initial fd =
  let fail = function
    | Io_timeout -> "timeout waiting for response"
    | Io_too_large -> "response head over 16 KiB"
    | Io_eof _ -> "truncated response"
    | Io_error e -> Unix.error_message e
  in
  match read_head ~initial fd with
  | Error (Io_eof 0) -> Error no_response
  | Error e -> Error (fail e)
  | Ok (ib, head_end) ->
    (match
       Result.bind (parse_head ib head_end) (fun (line, r_headers) ->
           Result.bind (status_of_line line) (fun status ->
               Result.map
                 (fun len -> (status, r_headers, len))
                 (content_length r_headers)))
     with
     | Error e -> Error e
     | Ok (status, r_headers, None) ->
       let rec drain () =
         match read_more fd ib with
         | Ok () -> drain ()
         | Error (Io_eof _) -> Ok ()
         | Error e -> Error (fail e)
       in
       Result.map
         (fun () ->
           let start = head_end + 4 in
           ( { status; r_headers;
               r_body = Bytes.sub_string ib.b start (ib.len - start) },
             `Close,
             "" ))
         (drain ())
     | Ok (_, _, Some len) when len > Sys.max_string_length ->
       Error ("bad content-length: " ^ string_of_int len)
     | Ok (status, r_headers, Some len) ->
       (match read_body fd ib ~head_end len with
        | Error e -> Error (fail e)
        | Ok (r_body, leftover) ->
          let conn = if connection_is_close r_headers then `Close else `Keep in
          Ok ({ status; r_headers; r_body }, conn, leftover)))

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
  ignore (write_all fd (Buffer.to_bytes b) 0 (Buffer.length b))

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
