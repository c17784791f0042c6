(** Minimal HTTP/1.1 message layer for the session service: request
    parsing with hard limits, responses framed in place in the buffer
    their body was printed into, and a small blocking client used by
    the tests and the load generator.

    The protocol subset is deliberately narrow — [Content-Length]
    bodies only, no chunked encoding — but connections are persistent:
    the server loops Content-Length-delimited requests through a
    buffered {!reader} (pipelined bytes survive between requests) and
    the {!client} reuses one socket until either side sends
    [Connection: close].  That is enough for a loopback analysis
    service and keeps every read bounded.

    Both sides read a message with the same two readers: the head up to
    its blank line, at most 16 KiB of it (searching only newly read
    bytes), then the body into one buffer of its [Content-Length]
    (ASCII digits only; repeated fields must agree).  The body buffer
    grows with the bytes that arrive past the first megabyte, so a
    declared length costs only what the peer sends.  Each side keeps
    its own start-line parse and failure mapping. *)

type request = {
  meth : string;  (** verbatim, e.g. ["POST"] *)
  path : string;  (** request target up to [?] *)
  query : string;  (** raw query string, [""] if absent *)
  headers : (string * string) list;  (** keys lowercased, values trimmed *)
  body : string;
}

type read_error =
  | Timeout  (** a socket read hit [SO_RCVTIMEO] — answer 408 *)
  | Closed  (** EOF or connection error before a complete request *)
  | Too_large  (** headers over 16 KiB or body over the configured cap *)
  | Malformed of string  (** unparseable request line, header or length *)

(** {2 Trace context}

    Every request through the session service is identified by a trace
    id, echoed on every response as [X-Sider-Trace-Id] (error responses
    included) and threaded through the access log, the span tree and
    any flight-recorder dump the request triggers. *)

val trace_response_header : string
(** ["X-Sider-Trace-Id"] — canonical casing for responses. *)

val trace_of_request : request -> string option
(** The client-supplied trace id, truncated to 128 bytes and sanitized
    to [[A-Za-z0-9._:-]] (other bytes become [_] — the id is echoed
    into headers and log lines).  [None] when absent or empty. *)

val fresh_trace_id : unit -> string
(** A process-unique server-generated id ([t-<ns>-<seq>]). *)

val wants_close : request -> bool
(** The client sent [Connection: close] — the server must not keep the
    connection alive after responding. *)

(** {2 Responses}

    A response is printed and sent from one {!Sider_data.Json.writer}:
    {!start_body} empties it and reserves a fixed gap before the body,
    the body is printed after the gap, and {!respond} writes the status
    line and headers into the end of the gap and sends head and body
    with one write.  Nothing is copied and no string is built. *)

val start_body : Sider_data.Json.writer -> unit
(** Empty the writer, keeping its buffer, and reserve the framing gap:
    what is written next is the body. *)

val body_text : Sider_data.Json.writer -> string
(** A copy of the body written since {!start_body}. *)

val respond :
  ?headers:(string * string) list ->
  status:int ->
  content_type:string ->
  keep_alive:bool ->
  Unix.file_descr ->
  Sider_data.Json.writer ->
  bool
(** Frame the body written since {!start_body} and send the response:
    the status line, [Content-Type], [Content-Length], [headers] in
    order, then [Connection: keep-alive] or [Connection: close].
    [false] when the write failed: the peer is gone or stopped reading,
    and the connection must be closed, not served again.  Raises
    [Invalid_argument] when no body was started or the head does not
    fit the gap (512 bytes; the service's longest head, with a 128-byte
    trace id, is about 300). *)

(** {2 Buffered connection reader}

    One {!reader} per live connection: bytes read beyond the current
    request (a pipelined successor) are kept in the reader and consumed
    by the next {!read_request_buffered} instead of being lost. *)

type reader

val reader : Unix.file_descr -> reader

val reader_has_pending : reader -> bool
(** Buffered bytes are already waiting — the next request (or part of
    it) arrived with the previous one, so the connection should be
    served again immediately rather than parked as idle. *)

val read_request_buffered :
  ?max_body:int -> reader -> (request, read_error) result
(** Read one full request, starting with the bytes a previous call left
    in the reader's buffer.  Bounded: at most 16 KiB of headers and
    [max_body] (default 8 MiB) of body are ever buffered.  The caller
    should set [SO_RCVTIMEO] on the socket so a stalled client surfaces
    as [Timeout] rather than hanging a worker.  On error the buffer is
    discarded (the connection is about to be closed). *)

(** {2 Client} *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

type client
(** A persistent keep-alive connection to [127.0.0.1:port].  Connects
    lazily on first use; reconnects transparently after the server
    closes the connection (request cap, idle timeout, [Connection:
    close]).  Not thread-safe — one client per driving thread. *)

val client : ?timeout_s:float -> port:int -> unit -> client

val client_request :
  ?headers:(string * string) list ->
  ?body:string ->
  client ->
  meth:string ->
  string ->
  (response, string) result
(** Perform one request on the persistent connection.  If the server
    closed a reused connection before answering (EOF with zero
    response bytes) and the method is idempotent (GET/HEAD/PUT/DELETE/
    OPTIONS), retries once on a fresh socket — that race is inherent
    to keep-alive.  Non-idempotent methods are never retried
    automatically: the server may have durably applied the mutation
    before dying, so the caller decides whether re-sending is safe.
    [Error] is a transport failure or a response that cannot be read: a
    status code that is not exactly three ASCII digits, a header without
    a colon, a bad [Content-Length] (one longer than a string can hold
    included), or a head over 16 KiB.  HTTP error statuses come back as
    [Ok]. *)

val client_close : client -> unit
(** Close the underlying socket (idempotent); the next
    {!client_request} reconnects. *)

val request :
  ?headers:(string * string) list ->
  ?body:string ->
  ?timeout_s:float ->
  meth:string ->
  port:int ->
  string ->
  (response, string) result
(** Perform one request against [127.0.0.1:port] on a dedicated
    connection ([Connection: close] requested).  [Error] is as for
    {!client_request} (connect refused, timeout, connection dropped
    before a status line, a response that cannot be read); HTTP error
    statuses come back as [Ok]. *)
