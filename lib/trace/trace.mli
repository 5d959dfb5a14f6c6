(** Pass-level observability for the synthesis pipeline.

    A trace sink collects {e spans}: named intervals measured on the
    monotonic wall clock (CPU time is recorded alongside, never in its
    place), each optionally annotated with circuit snapshots taken
    before and after the pass and with counters surfaced by the pass
    itself (QMDD cache statistics, CTR route lengths, ...).

    The sink is designed to be free when disabled: {!disabled} is a
    shared immutable constant, {!start} on it returns a preallocated
    token without reading any clock, and {!stop_with} on it returns
    before computing a snapshot.  Pipeline code therefore threads the
    sink unconditionally and never branches on {!enabled} itself.

    {b Ownership rule.}  A recording sink is safe to share between
    threads and between domains: {!bump}, {!stop}/{!stop_with},
    {!spans} and {!counter_totals} synchronize on a per-sink mutex, so
    concurrent increments are never lost and reads always see a
    consistent snapshot.  Span {e tokens} remain single-use and must
    not be shared — open and close a given span from one thread.
    Nothing in the tree shares a recording sink between threads today
    (each traced compile gets its own, and the serve daemon traces
    nothing); the lock keeps a caller that does share one correct. *)

(** {2 Clocks} *)

(** [now_ns ()] is the current monotonic clock reading in
    nanoseconds.  Differences are meaningful; absolute values are
    not. *)
val now_ns : unit -> int64

(** [past deadline] holds once {!now_ns} has reached the instant
    [deadline]; never for [None]. *)
val past : int64 option -> bool

(** {2 Snapshots} *)

(** Circuit metrics captured at a pass boundary. *)
type snapshot = {
  gate_volume : int;
  depth : int;
  t_count : int;
  t_depth : int;
  cnot_count : int;
  cost : float;  (** under the cost function given at capture time *)
}

(** [snapshot ?cost c] measures [c] (default cost {!Cost.eqn2}). *)
val snapshot : ?cost:Cost.t -> Circuit.t -> snapshot

(** {2 Spans} *)

type span = {
  name : string;
  index : int;  (** completion order, starting at 0 *)
  wall_seconds : float;  (** monotonic wall-clock duration *)
  cpu_seconds : float;  (** CPU time over the same interval *)
  before : snapshot option;
  after : snapshot option;
  counters : (string * float) list;
}

(** {2 Sinks} *)

type t

(** The no-op sink: records nothing, costs nothing. *)
val disabled : t

(** A fresh recording sink. *)
val create : unit -> t

val enabled : t -> bool

(** An in-flight span.  Tokens are single-use and must be passed back
    to the sink that issued them. *)
type started

(** [start t name] opens a span.  On a disabled sink this returns a
    shared dummy token without touching a clock. *)
val start : t -> string -> started

(** [start_with t name ?cost c] opens a span with a before-snapshot of
    [c].  The snapshot is not computed on a disabled sink. *)
val start_with : t -> string -> ?cost:Cost.t -> Circuit.t -> started

(** [stop t s ?counters ()] closes the span with no after-snapshot. *)
val stop : t -> started -> ?counters:(string * float) list -> unit -> unit

(** [stop_with t s ?cost ?counters c] closes the span with an
    after-snapshot of [c] (not computed on a disabled sink). *)
val stop_with :
  t ->
  started ->
  ?cost:Cost.t ->
  ?counters:(string * float) list ->
  Circuit.t ->
  unit

(** [spans t] lists completed spans in completion order (empty on a
    disabled sink). *)
val spans : t -> span list

(** [total_wall_seconds t] is the time since [create] (0 when
    disabled). *)
val total_wall_seconds : t -> float

(** {2 Named counters}

    Monotonic counters kept on the sink itself, independent of spans:
    the optimizer's [rewrite/*] counts (rule fires, reverts, oracle
    rejections) accumulate here across every sweep of a compile.  The
    serve daemon keeps its own counters, under its own lock. *)

(** [bump t name delta] adds [delta] to the named counter (created at 0
    on first use).  Free on a disabled sink.  Atomic: concurrent bumps
    from many threads or domains are all applied — none are lost. *)
val bump : t -> string -> float -> unit

(** [counter_totals t] lists the accumulated named counters sorted by
    name (empty on a disabled sink).  The listing is a consistent
    snapshot taken under the sink's lock. *)
val counter_totals : t -> (string * float) list

(** {2 Rendering} *)

(** [to_text spans] is a human-readable table, one line per span. *)
val to_text : span list -> string

(** Minimal JSON tree, writer and reader.  The writer emits standard
    JSON (UTF-8, escaped strings, no [NaN]/[inf] — non-finite numbers
    become [null]); the reader accepts what the writer emits plus
    ordinary interchange JSON.  Enough for the trace and bench baseline
    files without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : ?pretty:bool -> t -> string

  (** [of_string s] parses [s]; [Error msg] names the offending
      character position. *)
  val of_string : string -> (t, string) result

  (** [member key j] looks [key] up when [j] is an object. *)
  val member : string -> t -> t option

  (** [number j] reads [Int] or [Float] as a float. *)
  val number : t -> float option
end

val snapshot_to_json : snapshot -> Json.t
val span_to_json : span -> Json.t

(** [to_json ?meta spans] is an object [{ ...meta; "passes": [...] }]. *)
val to_json : ?meta:(string * Json.t) list -> span list -> Json.t
