(** Deterministic domain-parallel map for embarrassingly parallel
    compiler work (batch compiles, the bench suite, fuzz case loops).

    The runner is a fixed-size pool of OCaml 5 [Domain]s pulling task
    indices from a shared atomic counter.  Three guarantees make it
    safe to drop into code whose output is compared byte-for-byte
    against a sequential run:

    - {b Deterministic ordering}: results come back indexed by input
      position, never by completion order.  [map ~jobs f xs] returns
      exactly what [Array.map f xs] returns, for every [jobs].
    - {b Sequential fallback}: [jobs <= 1] (the default when
      [QSC_JOBS] is unset) runs a plain in-place loop on the calling
      domain — no domains are spawned, so single-job behavior is the
      old behavior by construction.
    - {b Deterministic failure}: if any task raises, the runner still
      joins every domain, then re-raises the exception of the
      {e lowest-indexed} failing task (with its backtrace) — the same
      exception a sequential left-to-right run would have surfaced.

    Tasks must be independent: [f] is called from several domains at
    once, so anything it touches must be domain-safe (per-domain via
    [Domain.DLS], immutable, or mutex-guarded).  See the ownership
    rules in [trace.mli], [optimize.mli] and DESIGN.md. *)

(** [default_jobs ()] resolves the process-wide default worker count:
    [QSC_JOBS] when set to a positive integer, else [1] (sequential).
    CLI [--jobs] flags override it per invocation. *)
val default_jobs : unit -> int

(** [resolve_jobs n] clamps a requested job count: [Some n] with
    [n >= 1] is honored, [Some _] below 1 becomes 1, [None] falls back
    to {!default_jobs}. *)
val resolve_jobs : int option -> int

(** [map ~jobs f xs] maps [f] over [xs], running up to [jobs] tasks at
    once (the calling domain works too: [jobs = 4] spawns 3 domains;
    past the runtime's 128-domain cap it runs on the domains it could
    spawn).  Result order matches input order. *)
val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list ~jobs f xs] is {!map} over a list. *)
val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [init ~jobs n f] builds [[| f 0; ...; f (n-1) |]] in parallel —
    {!map} when the natural input is an index range. *)
val init : jobs:int -> int -> (int -> 'a) -> 'a array
