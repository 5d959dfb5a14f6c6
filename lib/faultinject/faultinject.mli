(** Seeded, deterministic fault injection for the compiler pipeline.

    Robustness is only testable if failures can be manufactured on
    demand: this module builds the [?inject] hooks passed to
    {!Compiler.compile_checked}, which corrupt the circuit stream (or
    blow up outright) at chosen stage handoffs, so tests can assert
    that every failure mode surfaces as a
    structured {!Diagnostic.t} — never an uncaught exception — and that
    what {e should} be caught downstream (a truncated stream breaking
    verification) actually is.

    All randomness comes from a [Random.State] seeded at {!create}:
    the same seed, spec list, and input replay the exact same faults. *)

(** Raised by {!Raise} faults, standing in for an arbitrary mid-stage
    crash.  The payload names the stage. *)
exception Injected of string

(** How to corrupt a stage's output. *)
type fault =
  | Raise  (** raise {!Injected} — a mid-stage exception; the compiler
               must convert it into an [Internal] diagnostic *)
  | Nan_angle
      (** append an [Rz (nan)] on a random wire — a corrupt gate
          stream the non-finite-angle handoff scan must catch
          ([Invalid_gate]) before it poisons the QMDD value table *)
  | Out_of_range_wire
      (** rebuild the circuit with a gate targeting wire [n] of an
          [n]-qubit register — [Circuit.make] rejects it and the
          compiler must report [Invalid_gate] *)
  | Truncate
      (** drop a random suffix of the gate list — a {e silent}
          corruption that changes the unitary without tripping any
          structural check; verification must answer [Mismatch].

          Every randomized fault draws from the harness RNG even when
          the stage circuit is empty, so a given seed fires the same
          fault sequence regardless of each stage's circuit size. *)

val all_faults : fault list
val fault_to_string : fault -> string
val fault_of_string : string -> fault option

(** One planned injection: corrupt [stage]'s output with [fault]. *)
type spec = { stage : Diagnostic.stage; fault : fault }

val spec_to_string : spec -> string

(** [spec_of_string s] reads the [FAULT@STAGE] form {!spec_to_string}
    writes, splitting at the first [@].  The error says what was wrong:
    no [@], or the fault or stage name it could not read. *)
val spec_of_string :
  string ->
  ( spec,
    [ `No_at | `Unknown_fault of string | `Unknown_stage of string ] )
  result

(** The stages the compiler passes to inject hooks — every
    circuit-producing stage, pipeline order.  [Driver] and [Verify]
    produce no circuit and are excluded. *)
val stages : Diagnostic.stage list

(** [matrix] is the full test matrix: every injectable stage crossed
    with every fault. *)
val matrix : spec list

type t

(** The seed {!create} uses when given none: 0. *)
val default_seed : int

(** [create ?seed specs] is a harness that fires each spec the first
    time its stage hands off a circuit.  [seed] (default
    {!default_seed}) drives every random choice. *)
val create : ?seed:int -> spec list -> t

(** [hook h] is the hook to pass as
    [Compiler.compile_checked ~inject:(hook h)]. *)
val hook : t -> Diagnostic.stage -> Circuit.t -> Circuit.t

(** [fired h] lists the specs that actually fired so far, in firing
    order — a spec whose stage never handed a circuit on (e.g. a later
    stage of a compile that failed earlier) never fires, and tests can
    tell.  An optional stage that is off still hands its input on, so
    [Place] fires without placement. *)
val fired : t -> spec list

(** The socket-layer fault plane: deterministic chaos plans for the
    serve daemon's transport.  This module is pure — types, a stable
    line-oriented serialization (so fuzz counterexamples replay from
    disk), and seeded generators; the executor that actually opens
    sockets and tears frames lives with the fuzz harness. *)
module Socket : sig
  (** How to mistreat the transport around one request. *)
  type fault =
    | Torn_frame of int
        (** send only the first [k] bytes of the frame, no newline,
            then close — the daemon must drop the partial frame on EOF
            and stay up *)
    | Disconnect_before_read
        (** send the whole frame, then close without reading the
            response — the daemon's write hits [EPIPE] and must degrade
            that connection only *)
    | Stalled_write of int
        (** dribble the request bytes with a total stall of [ms]
            milliseconds (below the read deadline: a slow peer, not a
            dead one) — the response must still arrive and validate *)
    | Stalled_read of int
        (** send the frame, wait [ms] milliseconds before reading the
            response — exercises the daemon's bounded response write *)

  type event =
    | Request of { fault : fault option; frame : string }
        (** one connection carrying one frame, mistreated per [fault]
            ([None] = a well-behaved request whose response must
            validate) *)
    | Burst of int
        (** [n] concurrent ping connections racing the admission queue:
            every one must get either a valid envelope (including an
            [overloaded] shed) or a clean close — never a hang or a
            daemon crash *)

  (** A chaos plan: events executed in order against a live daemon. *)
  type plan = event list

  (** One event per line ([req F] / [torn@K F] / [drop F] /
      [stallw@MS F] / [stallr@MS F] / [burst@N]); frames are
      single-line JSON so the framing never collides. *)
  val plan_to_string : plan -> string

  val plan_of_string : string -> (plan, string) result

  (** [random_event rng ~frame] wraps [frame] in a random transport
      mistreatment (or none); [random_burst rng] is a small random
      connection burst. *)
  val random_event : Random.State.t -> frame:string -> event

  val random_burst : Random.State.t -> event
end
