(* Minimal HTTP/1.1 message layer shared by the metrics endpoint, the
   session service and the load generator: request parsing with hard
   limits and receive-timeout awareness, request bodies decoded from the
   worker's read buffer as they arrive, responses framed in place in
   the buffer their body was printed into, and a small blocking client.  Connections are persistent (keep-alive) on both
   sides: the server reads Content-Length-delimited requests in a loop
   through a buffered [reader] (so pipelined bytes are never lost
   between requests), and the [client] reuses one socket across
   requests until either side sends [Connection: close].  No external
   dependencies. *)

module Json = Sider_data.Json

let max_header_bytes = 16 * 1024

type read_error =
  | Timeout
  | Closed
  | Too_large
  | Length_required
  | Malformed of string

(* The bytes in hand for one connection: the head being read, and
   after a message the bytes read past it (a pipelined successor), moved
   to the front.  One buffer serves a reader for its life: a worker's
   for every request it reads, a client's for every response.  Reads
   are of [read_step] bytes; the buffer starts at one read and grows to
   at most [max_header_bytes] plus one, what a head may fill before it
   is refused. *)
type read_buffer = { mutable b : Bytes.t; mutable len : int }

(* A request's body, read as it is decoded.  The [bd_in_hand] bytes that
   came with the head are [bd_ib.b]'s from [bd_start]; [bd_unread]
   declared bytes are still on the socket.  The decoder is shown the
   first [bd_shown] of the [bd_len] declared (half of them under the
   truncation fault). *)
type body = {
  bd_fd : Unix.file_descr;
  bd_ib : read_buffer;
  bd_start : int;
  bd_in_hand : int;
  bd_len : int;
  mutable bd_shown : int;
  mutable bd_unread : int;
}

type request = {
  meth : string;
  path : string;
  query : string;
  headers : (string * string) list;
  body : body;
}

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 411 -> "Length Required"
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

(* Both sides read a head the same way: {!read_head} reads up to the
   blank line that ends it, and each side keeps only its start-line
   parse and its own mapping of the failures below.  A response's body
   is then read into one string ({!read_body}); a request's is read as
   the route decodes it, from the worker's buffer ({!body_cursor}). *)

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

let read_step = 8192

let buffer_limit = max_header_bytes + read_step

let read_buffer () = { b = Bytes.create read_step; len = 0 }

(* Makes room for [n] more bytes: doubled, up to [buffer_limit], or
   to exactly the bytes in hand plus [n] past it. *)
let reserve ib n =
  if Bytes.length ib.b - ib.len < n then begin
    let nb =
      Bytes.create
        (max (ib.len + n) (min (2 * Bytes.length ib.b) buffer_limit))
    in
    Bytes.blit ib.b 0 nb 0 ib.len;
    ib.b <- nb
  end

let read_more fd ib =
  reserve ib read_step;
  Result.map (fun k -> ib.len <- ib.len + k) (read_into fd ib.b ib.len read_step)

(* Drops the first [k] bytes, moving the rest to the front. *)
let consume ib k =
  Bytes.blit ib.b k ib.b 0 (ib.len - k);
  ib.len <- ib.len - k

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

(* Reads until the head, which starts at the buffer's first byte, is
   complete and returns the offset of its blank line.  Each read's bytes
   are searched once (with the three before them, for a blank line split
   across reads); at most [max_header_bytes] plus one read are held
   without a blank line. *)
let read_head fd ib =
  let rec go from =
    match find_blank_line ib.b ~from ib.len with
    | Some i -> Ok i
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

(* [len] body bytes, for the client: the bytes already read past the
   head, then reads straight into the rest of the body, never past
   [len].  The body starts at the bytes in hand plus [body_step] and
   doubles, up to [len], as bytes arrive: a peer that declares more than
   it sends costs what it sends, and a body of up to [body_step] lands
   in one buffer of exactly [len].  The read buffer is left holding the
   bytes read past the body (the start of a pipelined successor). *)
let body_step = 1 lsl 20

let read_body fd ib ~head_end len =
  let start = head_end + 4 in
  let have = min len (ib.len - start) in
  let body = ref (Bytes.create (min len (have + body_step))) in
  Bytes.blit ib.b start !body 0 have;
  consume ib (start + have);
  let rec fill filled =
    if filled = len then Ok (Bytes.unsafe_to_string !body)
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
  fill have

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

let read_error_of = function
  | Io_timeout -> Timeout
  | Io_too_large -> Too_large
  | Io_eof _ | Io_error _ -> Closed

let continue_line = Bytes.of_string "HTTP/1.1 100 Continue\r\n\r\n"

let expects_continue headers =
  match List.assoc_opt "expect" headers with
  | Some v -> String.lowercase_ascii v = "100-continue"
  | None -> false

(* One request's head, starting from the bytes in [ib]; its body stays
   in [ib] and on the socket.  The caller is expected to have set
   [SO_RCVTIMEO]; a timed-out read surfaces as [Timeout] (the 408
   path), EOF or a socket error before a complete head as [Closed], and
   oversized headers or bodies as [Too_large] — a slow or malicious
   client can cost at most one worker's timeout, never unbounded memory.
   A [Transfer-Encoding] field, which this server does not decode, is
   [Length_required] whatever else the head says: read as a body of
   [Content-Length], its chunks would run as the next request.  A
   client that sent [Expect: 100-continue] and has not sent its body
   is told to send it once the head is accepted. *)
let read_request_from ~max_body fd ib =
  match read_head fd ib with
  | Error e -> Error (read_error_of e)
  | Ok head_end ->
    let parsed =
      Result.bind (parse_head ib head_end) (fun (line, headers) ->
          match String.split_on_char ' ' line with
          | meth :: target :: _ -> Ok (meth, target, headers)
          | _ -> Error ("bad request line: " ^ line))
    in
    (match parsed with
     | Error m -> Error (Malformed m)
     | Ok (_, _, headers) when List.mem_assoc "transfer-encoding" headers ->
       Error Length_required
     | Ok (meth, target, headers) ->
       (match content_length headers with
        | Error m -> Error (Malformed m)
        | Ok (Some len) when len > max_body -> Error Too_large
        | Ok len ->
          let len = Option.value ~default:0 len in
          let start = head_end + 4 in
          let in_hand = min len (ib.len - start) in
          if in_hand < len && expects_continue headers
             && not (write_all fd continue_line 0 (Bytes.length continue_line))
          then Error Closed
          else begin
            let path, query =
              match String.index_opt target '?' with
              | Some i ->
                ( String.sub target 0 i,
                  String.sub target (i + 1) (String.length target - i - 1) )
              | None -> (target, "")
            in
            let body =
              { bd_fd = fd; bd_ib = ib; bd_start = start; bd_in_hand = in_hand;
                bd_len = len; bd_shown = len; bd_unread = len - in_hand }
            in
            Ok { meth; path; query; headers; body }
          end))

(* --- request bodies --------------------------------------------------------- *)

exception Read_failed of read_error

(* The shown bytes come from the buffer first, then from the socket
   into the same buffer, at most the shown bytes still unread: the
   declared ones less those hidden at the end. *)
let body_cursor (req : request) =
  let bd = req.body in
  let read b off n =
    let want = min n (bd.bd_unread - (bd.bd_len - bd.bd_shown)) in
    if want <= 0 then 0
    else
      match read_into bd.bd_fd b off want with
      | Ok k ->
        bd.bd_unread <- bd.bd_unread - k;
        k
      | Error e -> raise (Read_failed (read_error_of e))
  in
  Json.source bd.bd_ib.b bd.bd_start (min bd.bd_in_hand bd.bd_shown) read

let truncate_body (req : request) = req.body.bd_shown <- req.body.bd_len / 2

(* Reads and drops the declared bytes still on the socket, into the
   buffer the body was decoded from: by now nothing else lives there. *)
let finish_body (req : request) =
  let bd = req.body in
  let b = bd.bd_ib.b in
  let rec go () =
    if bd.bd_unread = 0 then Ok ()
    else
      match read_into bd.bd_fd b 0 (min bd.bd_unread (Bytes.length b)) with
      | Ok k ->
        bd.bd_unread <- bd.bd_unread - k;
        go ()
      | Error e -> Error (read_error_of e)
  in
  go ()

(* --- buffered per-connection reader ---------------------------------------- *)

(* A connection keeps only the bytes read past its last request; the
   worker serving it reads into its own buffer. *)
type reader = {
  r_fd : Unix.file_descr;
  mutable r_pending : string;
}

let reader fd = { r_fd = fd; r_pending = "" }

let reader_has_pending r = r.r_pending <> ""

(* The bytes past a body that came whole with its head are the next
   request's: they go to the reader at once, so the body's decoder owns
   the buffer. *)
let read_request_buffered ?(max_body = 8 * 1024 * 1024) ib r =
  let pending = String.length r.r_pending in
  ib.len <- 0;
  reserve ib pending;
  Bytes.blit_string r.r_pending 0 ib.b 0 pending;
  ib.len <- pending;
  let result = read_request_from ~max_body r.r_fd ib in
  r.r_pending <-
    (match result with
     | Ok req ->
       let rest = req.body.bd_start + req.body.bd_in_hand in
       if rest < ib.len then Bytes.sub_string ib.b rest (ib.len - rest) else ""
     | Error _ -> "");
  ib.len <- 0;
  result

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

(* One response, starting from the bytes in [ib]: the response and
   whether the server announced [Connection: close]; [ib] is left
   holding the bytes read past it.  A response without a
   [Content-Length] is drained to EOF (and the connection is done).  A
   reset reads as EOF; EOF before any byte of the response is
   [no_response], which the idempotent retry keys on. *)
let read_response_from fd ib =
  let fail = function
    | Io_timeout -> "timeout waiting for response"
    | Io_too_large -> "response head over 16 KiB"
    | Io_eof _ -> "truncated response"
    | Io_error e -> Unix.error_message e
  in
  match read_head fd ib with
  | Error (Io_eof 0) -> Error no_response
  | Error e -> Error (fail e)
  | Ok head_end ->
    (match
       Result.bind (parse_head ib head_end) (fun (line, r_headers) ->
           Result.bind (status_of_line line) (fun status ->
               Result.map
                 (fun len -> (status, r_headers, len))
                 (content_length r_headers)))
     with
     | Error e -> Error e
     | Ok (status, r_headers, None) ->
       let start = head_end + 4 in
       let body = Buffer.create (max 64 (ib.len - start)) in
       Buffer.add_subbytes body ib.b start (ib.len - start);
       ib.len <- 0;
       let rec drain () =
         match read_into fd ib.b 0 (Bytes.length ib.b) with
         | Ok k ->
           Buffer.add_subbytes body ib.b 0 k;
           drain ()
         | Error (Io_eof _) -> Ok ()
         | Error e -> Error (fail e)
       in
       Result.map
         (fun () -> ({ status; r_headers; r_body = Buffer.contents body }, `Close))
         (drain ())
     | Ok (_, _, Some len) when len > Sys.max_string_length ->
       Error ("bad content-length: " ^ string_of_int len)
     | Ok (status, r_headers, Some len) ->
       (match read_body fd ib ~head_end len with
        | Error e -> Error (fail e)
        | Ok r_body ->
          let conn = if connection_is_close r_headers then `Close else `Keep in
          Ok ({ status; r_headers; r_body }, conn)))

(* A client reads every response into one buffer, which keeps the bytes
   read past the last response between requests. *)
type client = {
  c_port : int;
  c_timeout_s : float;
  mutable c_sock : Unix.file_descr option;
  c_buf : read_buffer;
}

let client ?(timeout_s = 30.0) ~port () =
  { c_port = port; c_timeout_s = timeout_s; c_sock = None;
    c_buf = read_buffer () }

let client_close c =
  (match c.c_sock with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  c.c_sock <- None;
  c.c_buf.len <- 0

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
       c.c_buf.len <- 0;
       Ok (sock, true)
     | exception Unix.Unix_error (err, _, _) ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       Error (Printf.sprintf "connect: %s" (Unix.error_message err)))

(* The head, then one [Bytes] of exactly head + body: a create's body is
   copied once, and the request goes out in one write.  Neither side sets
   [TCP_NODELAY], so a second, small write could wait on the peer's
   delayed ACK. *)
let send_request ~headers ?body ~meth fd path =
  let head = Buffer.create 256 in
  Buffer.add_string head
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n" meth path);
  List.iter
    (fun (k, v) -> Buffer.add_string head (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  (match body with
   | Some body ->
     Buffer.add_string head
       (Printf.sprintf "Content-Length: %d\r\n" (String.length body))
   | None -> ());
  Buffer.add_string head "\r\n";
  let body = Option.value body ~default:"" in
  let hl = Buffer.length head and bl = String.length body in
  let msg = Bytes.create (hl + bl) in
  Buffer.blit head 0 msg 0 hl;
  Bytes.blit_string body 0 msg hl bl;
  ignore (write_all fd msg 0 (hl + bl))

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
      (match read_response_from fd c.c_buf with
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
       | Ok (resp, conn) ->
         if conn = `Close then client_close c;
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
