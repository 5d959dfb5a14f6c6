(** Static verification of circuits and of the compiler pipeline.

    Four cooperating analyzers over the {!Circuit.t} IR, none of which
    simulates anything:

    - {e circuit diagnostics} ({!check}): a gate-indexed walk flagging
      suspicious-but-representable constructions — adjacent
      inverse pairs, zero-angle rotations, gates whose control and
      target overlap, unused register wires, declared-width padding;
    - {e semantic diagnostics} ({!semantic}): findings proved by the
      {!Absint} forward dataflow pass under the |0...0>-input
      assumption — gates that provably do nothing, controls proved
      constant, ancillas never uncomputed, registers that provably
      factor.  Still no simulation: the interpreter is polynomial in
      gates x wires;
    - {e device legality} ({!device_legal}): proof that a circuit is
      executable as-is on a {!Device.t} — native library only, every
      CNOT on an {e allowed directed} coupling, register within the
      machine.  Distinguishes a CNOT that merely needs the Fig. 6
      4-H reversal from one that needs routing;
    - {e pass contracts} ({!Contract}): pre/postconditions for each
      stage of {!Compiler.compile}-style pipelines, so every
      inter-stage handoff can be audited.

    Every analyzer returns structured {!finding}s rather than raising,
    so callers (tests, the [qsc lint] CLI, the compiler's strict mode)
    decide what is fatal. *)

(** Lint rules.  Each is individually toggleable through the [?rules]
    argument of the analyzers. *)
module Rule : sig
  type t =
    | Inverse_pair
        (** adjacent gates that cancel: [g] directly followed by
            [adjoint g] (covers self-inverse pairs like [H q0; H q0]
            and dagger pairs like [T q0; Tdg q0]) *)
    | Zero_angle  (** a rotation or phase gate whose canonical angle
                      is exactly 0 — the identity in disguise *)
    | Non_finite_angle
        (** a rotation or phase gate whose angle is NaN or infinite —
            no defined unitary; always [Error]-severity *)
    | Overlapping_qubits
        (** a multi-qubit gate whose control and target (or two
            operands) name the same wire, e.g.
            [Cnot {control = 2; target = 2}] *)
    | Unused_qubit  (** a register wire no gate touches *)
    | Width_mismatch
        (** the declared register is wider than the highest wire any
            gate uses (trailing padding) *)
    | Non_native_gate
        (** a gate outside the transmon library (CZ, SWAP, Toffoli,
            generalized Toffoli) — must be decomposed before mapping *)
    | Cnot_direction
        (** a CNOT whose qubits are coupled only in the opposite
            direction: executable after the 4-H Fig. 6 reversal, but
            not as written *)
    | Cnot_uncoupled
        (** a CNOT on a pair with no coupling in either direction:
            needs routing, not just reversal *)
    | Width_exceeds_device  (** the circuit register is larger than the
                                device register *)
    | Volume_increase
        (** an optimization stage handed over more gates than it
            received (contract rule; never raised by {!check}) *)
    | Dead_gate
        (** semantic: the gate provably leaves the state prepared from
            |0...0> exactly unchanged — a CNOT whose control is proved
            |0>, Z on a wire proved |0>, X on a wire proved |+> *)
    | Constant_control
        (** semantic: every control is proved constant, so the gate
            provably acts as a cheaper body (CNOT with a |1> control
            acts as X; by phase kickback, a CNOT onto a proved |->
            target acts as Z on its control) *)
    | Dirty_ancilla
        (** semantic: a touched wire provably ends in a non-|0> state —
            an ancilla that was never uncomputed *)
    | Separable_register
        (** semantic: the final entanglement partition has more than
            one class — the circuit provably factors *)

  val all : t list

  (** [code r] is the stable kebab-case identifier printed in findings
      and accepted by [qsc lint --rules], e.g. ["cnot-uncoupled"]. *)
  val code : t -> string

  (** [of_code s] inverts {!code}. *)
  val of_code : string -> t option

  (** [describe r] is a one-line human description for rule tables. *)
  val describe : t -> string
end

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  gate_index : int option;
      (** 0-based position in execution order; [None] for
          register-level findings *)
  rule : Rule.t;
  message : string;
}

val finding_to_string : finding -> string
val pp_finding : Format.formatter -> finding -> unit

(** [has_errors fs] holds when any finding is [Error]-severity — the
    exit-code predicate of [qsc lint]. *)
val has_errors : finding list -> bool

(** [check ?rules c] runs the {e syntactic} circuit diagnostics (the
    first five rules of {!Rule.t}); semantic and device rules in
    [rules] are ignored.  Findings come out in gate order.  Default:
    all rules. *)
val check : ?rules:Rule.t list -> Circuit.t -> finding list

(** [semantic ?rules c] runs the {!Absint} interpreter and reports the
    semantic rules ({!Rule.Dead_gate}, {!Rule.Constant_control} as
    [Warning]; {!Rule.Dirty_ancilla}, {!Rule.Separable_register} as
    [Info]).  All findings are theorems about the state prepared from
    |0...0> — on a circuit meant as a general unitary (arbitrary input
    states) they are advisory.  Skips the analysis entirely when
    [rules] enables none of the four.  Default: all rules. *)
val semantic : ?rules:Rule.t list -> Circuit.t -> finding list

(** [device_legal ?rules d c] statically certifies [c] against [d]:
    the empty list means every gate is in the native {e 1-qubit + CNOT}
    library and every CNOT sits on an allowed directed coupling, i.e.
    the circuit runs as written.  Diagnostics rules in [rules] are
    ignored.  Default: all rules. *)
val device_legal : ?rules:Rule.t list -> Device.t -> Circuit.t -> finding list

(** [is_device_legal d c] = [device_legal d c = []]: the contract the
    routers guarantee, as a verdict.  {!device_legal} says {e which}
    gate fails and {e why}. *)
val is_device_legal : Device.t -> Circuit.t -> bool

(** [lint ?rules ?device c] is {!check} plus {!semantic} plus, when
    [device] is given, {!device_legal}. *)
val lint : ?rules:Rule.t list -> ?device:Device.t -> Circuit.t -> finding list

(** [to_diagnostic ?file ?kind ~stage f] promotes a finding to a
    pipeline {!Diagnostic.t}.  Total: every rule maps to a diagnostic
    kind (structural rules to their natural kinds — [Invalid_gate],
    [Capacity], [Unroutable], [Unsupported] — everything else to
    {!Diagnostic.Lint_finding}); [kind] overrides the mapping (the
    compiler's strict mode passes [Contract_violation]).  [Error]
    findings become [Error] diagnostics; [Warning] and [Info] both
    become [Warning] (diagnostics have no third level).  The message is
    {!finding_to_string}, so the rule code and gate index survive. *)
val to_diagnostic :
  ?file:string -> ?kind:Diagnostic.kind -> stage:Diagnostic.stage ->
  finding -> Diagnostic.t

(** Pre/postconditions of the compiler pipeline — the auditable
    handoffs between stages of the paper's Fig. 2 flow. *)
module Contract : sig
  (** Raised by {!enforce} when a stage hands over a circuit violating
      its contract.  The message names the stage and the first
      finding. *)
  exception Violated of string

  (** [after_decompose c] — postcondition of {!Decompose.to_native}:
      only transmon-native gates remain (in particular, nothing with
      more than one control, so no gate with >2 controls can survive). *)
  val after_decompose : Circuit.t -> finding list

  (** [after_route d c] — postcondition of routing + SWAP expansion:
      [c] is device-legal on [d] (see {!device_legal}). *)
  val after_route : Device.t -> Circuit.t -> finding list

  (** [after_optimize ~before ~after] — postcondition of
      {!Optimize.optimize}: gate volume did not increase, the register
      did not change, and the result is still native when the input
      was. *)
  val after_optimize : before:Circuit.t -> after:Circuit.t -> finding list

  (** [enforce ~stage findings] is a no-op on [[]] and raises
      {!Violated} otherwise. *)
  val enforce : stage:string -> finding list -> unit
end
