(** A persistent compile service: the [qsc serve] daemon.

    One-shot [qsc compile] pays process startup, device construction
    and — dominating everything — verification on every invocation.
    Editor integrations and benchmark harnesses issue the same compiles
    over and over, so the daemon keeps a process alive, speaks a
    newline-delimited JSON protocol over a Unix-domain or loopback TCP
    socket, and memoizes full compile reports in a content-addressed
    cache (the same shape as quilc's server mode, see DESIGN.md).

    The daemon is built to stay up under overload and faults: requests
    run under a supervisor (watchdog deadline, optional per-request
    allocation budget, a last-resort exception envelope — a poisoned
    request is answered with a structured code-125 diagnostic and its
    worker recycled, never a dead process), connections are admitted
    through a bounded queue ahead of a fixed worker pool (excess load
    is shed with an explicit [overloaded] response instead of an
    unbounded thread pile-up), reads carry per-connection deadlines and
    a frame-size cap (slowloris defense), and the report cache can
    spill to an on-disk store that survives a [kill -9].

    Threads and domains: sys-threads accept connections, read frames,
    supervise requests and answer cache hits; every compile runs on a
    domain of one process-wide compile pool, up to [jobs] at once per
    daemon (see {!create}).  So compiles use several cores, and a hit
    never waits behind a compile.  The cache, the in-flight table and
    every counter are guarded by one state lock, which is never held
    across a compile.

    {2 The wire protocol: [qsynth-serve/v1]}

    One request per line, one response line per request, both UTF-8
    JSON.  Requests are objects with an ["op"] field:

    - [{"op":"compile","source":S,"format":F,"device":D,"options":O}]
      compiles source text [S] (format ["qasm"], ["qc"], ["real"] or
      ["pla"]; default ["qasm"]) for built-in device [D].  [O] is an
      optional object of compile options (see {!section-options}).
    - [{"op":"batch","requests":[R1,R2,...]}] runs each [Ri] (a compile
      request object without ["op"]) independently and aggregates — the
      protocol form of [qsc compile --keep-going].
    - [{"op":"stats"}] reports request, cache, overload, supervision
      and connection counters (the [overload] group also carries
      [max_workers], [jobs] and [max_pending]).
    - [{"op":"ping"}] liveness probe.
    - [{"op":"shutdown"}] starts a graceful drain: in-flight requests
      finish, queued-but-unserved and new connections are refused, and
      the accept loop stops.

    Every response carries ["protocol"], the request's ["id"] (echoed
    verbatim when present), ["ok"], ["code"] and ["seconds"].  ["code"]
    mirrors the CLI exit contract: 0 success, 123 reported failure
    (diagnostics, MISMATCH, failed batch entries, load shedding), 124
    protocol misuse (unparseable frame, over-long frame, unknown op or
    device, unknown or wrongly-typed field), 125 internal error (an
    unexpected exception, a tripped watchdog, an exhausted allocation
    budget).  Failures carry ["diagnostics"] — the same JSON shape the
    CLI emits — with misuse tagged with the [Protocol] diagnostic kind.

    {3 Overload and failure responses}

    - A connection arriving while the pending queue is full is answered
      with one [{"status":"overloaded","retry_after_ms":N}] envelope
      (code 123) and closed — explicit load shedding, never an
      unbounded backlog.
    - A connection still queued when [shutdown] arrives is answered
      with [{"status":"draining"}] (code 123) and closed.
    - A request line longer than the frame cap is answered with a
      code-124 [Protocol] diagnostic; when the over-long line never
      even ends (no newline within the cap), the same response is sent
      and the connection closed.
    - A request that trips the watchdog or the allocation budget is
      answered with a code-125 [Internal] diagnostic naming the
      tripped limit; the daemon stays up.
    - A client that disconnects before its response is written
      ([EPIPE]/[ECONNRESET]) is counted and the connection closed —
      never a process error ([SIGPIPE] is ignored while serving).

    A successful compile response carries the {!Compiler.report_to_json}
    payload under ["report"], with one deliberate change: the volatile
    ["elapsed_seconds"] / ["verification_seconds"] fields are scrubbed
    to [null].  Reports are therefore deterministic — a cache hit is
    byte-identical to the miss that populated it, and both are
    byte-identical to a one-shot compile of the same request — and live
    timing goes in the envelope's ["seconds"] instead.

    {2 The cache}

    Keyed by ({!Compiler.source_digest}, format,
    {!Compiler.device_digest}, {!Compiler.options_digest}) — content,
    never file paths — and bounded by an LRU policy over {e both} an
    entry count and a byte budget (the sum of serialized payload
    sizes).  Only completed reports (status ok or mismatch) are cached.
    Two racing misses for the same key coalesce: the compiler runs
    once, the second racer waits for it and is served the first's
    report as a hit (when the first compile's outcome is not cached —
    a diagnostic, an exception — the waiter retries as the next miss).
    A hit skips the whole pipeline {e including verification}; that is
    sound because the key pins the exact source, device table and
    option set that produced the verified report, and verification is
    deterministic for a pinned triple — re-running it could only repeat
    the same answer.

    With [persist_dir] set, every cached report is also spilled to disk
    (one file per cache key, schema [qsynth-serve-cache/v1]) with an
    atomic write-to-temp-then-rename, so a crash mid-write can never
    leave a torn report to be served later.  A fresh daemon pointed at
    the same directory warms its cache from the store — byte-identical
    reports across a kill-and-restart cycle — and unreadable or
    malformed store files are deleted on load, never served.  Evicted
    entries are removed from disk too, so the store obeys the same
    budgets as the memory cache. *)

(** {2 Daemon state} *)

type t

(** Raised (and caught internally — it never escapes {!handle_line})
    when a request allocates past [max_request_bytes]; surfaced to the
    client as a code-125 diagnostic. *)
exception Allocation_budget_exceeded of int

(** [create ()] is a fresh daemon state (cache plus counters).

    Cache: [cache_capacity] bounds the report cache in entries (default
    256; 0 disables caching entirely, including the persistent store)
    and [max_cache_bytes] in summed payload bytes (default 64 MiB; 0
    means no byte bound); least-recently-used entries are evicted past
    either bound.  [persist_dir] names a directory (created if missing)
    to spill the cache to and warm it from — see the cache section
    above.

    Budgets: [max_deadline_seconds] (default 60) bounds every request's
    wall-clock compile budget: a request asking for more is clamped,
    one asking for nothing gets the maximum.  [watchdog_grace_seconds]
    (default 5; 0 disables supervision) is how long past the deadline
    ceiling the {e supervised} path ({!handle_line_supervised}, used by
    the socket layer) waits before abandoning a wedged request and
    answering 125 on its behalf.  [max_request_bytes] (default
    unlimited), when set, bounds one request's heap allocation,
    sampled via a [Gc] alarm on the compile's domain during the
    parse-and-compile window and checked again when it ends; a request
    past it is aborted with a code-125 diagnostic.

    Sockets (used by {!serve}): [max_frame_bytes] (default 4 MiB) caps
    a request line; [read_timeout_seconds] (default 30) is the
    per-frame read deadline and the response write timeout;
    [max_workers] (default 8) fixes the connection worker pool;
    [max_pending] (default 32) bounds the admission queue, beyond which
    connections are shed.

    Parallelism: [jobs] (default [Domain.recommended_domain_count ()],
    one per core) is the most compiles this daemon runs at once,
    one-shot misses and [batch] lanes alike; [jobs = 1] compiles one
    request at a time.  Every
    compile runs on a domain of one process-wide compile pool, which
    starts with the first cache miss in the process, grows to the
    largest [jobs] any daemon asked for (or as far as the runtime's
    128-domain cap allows), and never shrinks; each pool domain runs
    one compile at a time.  The requesting thread waits for
    its compile without holding a lock, so cache hits and other
    requests proceed meanwhile.  Racing misses for one key coalesce
    (see the cache section).  A batch with [jobs > 1] submits its
    predicted cache misses to the pool (up to [jobs] at once) while the
    cache protocol itself stays sequential in request order, so a
    batch response is byte-identical to the [jobs = 1] run of the same
    batch on an idle server (counters and LRU order included).

    Memory: one compile's heap is bounded by its QMDD node budget
    (about 3 GB at the default 8M nodes; a request's [node_budget] 0
    lifts that bound) and by [max_request_bytes] when it is set.  The
    daemon runs up to [jobs] compiles at once, so its heap may reach
    [jobs] times one compile's bound.  [qsc serve] keeps its default
    [jobs] within physical memory at 3 GB per compile.

    [inject] (default none) is a fault hook for robustness tests and
    the chaos harness: it is called once per cache-missing compile, on
    the compile's pool domain, before the compiler runs, and whatever
    it raises (or however long it sleeps) flows through the
    supervision machinery like a real fault. *)
val create :
  ?cache_capacity:int ->
  ?max_cache_bytes:int ->
  ?persist_dir:string ->
  ?max_deadline_seconds:float ->
  ?max_frame_bytes:int ->
  ?watchdog_grace_seconds:float ->
  ?max_request_bytes:int ->
  ?read_timeout_seconds:float ->
  ?max_workers:int ->
  ?max_pending:int ->
  ?jobs:int ->
  ?inject:(unit -> unit) ->
  unit ->
  t

(** Counter snapshot, taken in one critical section so it is never
    torn: [hits + misses = lookups] holds in {e every} snapshot, even
    while workers are compiling ([lookups] counts resolved cache
    consultations — each request that consulted the cache is counted
    exactly once, as a hit or as a miss).
    [resident]/[resident_bytes] describe the live cache; [warmed] counts entries loaded from the persistent store at
    {!create}; [shed]/[drained] count refused connections (queue full /
    shutdown drain); [watchdog_trips]/[alloc_trips] count supervised
    requests answered 125 on behalf of a wedged or over-allocating
    worker; [client_disconnects], [read_timeouts] and [frame_rejects]
    count per-connection degradations absorbed without touching the
    daemon; [connections_served] and [open_connections] watch the
    worker pool (the latter is a gauge and returns to 0 when idle —
    the regression handle for the old grow-only thread list). *)
type counters = {
  requests : int;
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
  resident_bytes : int;
  warmed : int;
  persist_errors : int;
  shed : int;
  drained : int;
  watchdog_trips : int;
  alloc_trips : int;
  client_disconnects : int;
  read_timeouts : int;
  frame_rejects : int;
  connections_served : int;
  open_connections : int;
}

val stats : t -> counters

(** [shutdown_requested t] is set once a [shutdown] request has been
    answered. *)
val shutdown_requested : t -> bool

(** {2 The protocol core}

    [handle_line t line] maps one request line to one response line
    (no trailing newline).  This is the entire protocol — the socket
    layer below only moves lines — so tests and the fuzzer drive the
    daemon in-process with strings.  Never raises: internal errors
    become code-125 responses, over-long lines code-124 responses.
    Thread-safe: cache, in-flight table and counter updates serialize
    on a state lock that is never held across a compile; the compile
    itself runs on a pool domain while the calling thread waits (with
    racing identical misses coalesced into one compile). *)
val handle_line : t -> string -> string

(** [handle_line_supervised t line] is {!handle_line} run under the
    supervisor: the request executes on a disposable worker thread
    watched against the watchdog deadline
    ([max_deadline_seconds + watchdog_grace_seconds]).  If the worker
    wedges past it, the request is abandoned (its late result is
    discarded; the thread is left to die and a fresh one serves the
    next request) and a code-125 watchdog diagnostic is returned
    instead — the caller always gets exactly one response line.  With
    supervision disabled ([watchdog_grace_seconds = 0]) this is
    {!handle_line}.  The socket layer routes every frame through
    here. *)
val handle_line_supervised : t -> string -> string

(** {2 The socket layer} *)

type address =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of { host : string; port : int }  (** loopback TCP *)

val address_to_string : address -> string

(** [serve t address] binds, listens and serves until a [shutdown]
    request arrives (or [max_requests] lines have been answered, for
    bounded test and CI runs).  Connections are admitted through a
    bounded queue into a fixed pool of [max_workers] threads — the pool
    never grows, excess connections are shed with an [overloaded]
    response — and every frame runs through
    {!handle_line_supervised}.  [SIGPIPE] is ignored; client
    disconnects, stalled reads and over-long frames degrade that
    connection only.  On shutdown the drain is graceful: in-flight
    requests finish and are answered, queued connections are refused
    with a [draining] response, and the listen socket closes before
    the call returns.  An existing Unix-socket path is replaced.
    Raises [Unix.Unix_error] only for bind-time failures. *)
val serve : ?max_requests:int -> t -> address -> unit

(** {2 A line-oriented client}

    Enough protocol client for tests, CI replay and the [qsc serve
    --self-test] probe; real integrations can speak the protocol with
    [nc] or a few lines of any language. *)
module Client : sig
  type conn

  val connect : address -> conn

  (** [request c line] sends one request line and blocks for the
      response line. *)
  val request : conn -> string -> string

  val close : conn -> unit
end
