(** Forward abstract interpretation over the {!Circuit.t} IR.

    Three cooperating dataflow domains, evaluated in one pass over the
    gate list under the standard assumption that every wire starts in
    |0> (the state a freshly allocated quantum register is prepared in,
    and the one the ESOP front-end's cascades are defined against):

    - a {e per-qubit basis-state lattice}
      (bottom < the six stabilizer states < Unknown) with exact transfer
      functions: Clifford gates permute the six states, rotations whose
      canonical angle is a multiple of pi/2 stay precise, everything
      else joins to Unknown, and multi-qubit gates on unknown operands
      smash their operands;
    - an {e entanglement partition} (a union-find over wires), merged
      only when a genuinely entangling interaction occurs — a CNOT whose
      control is proved |0>/|1>, or whose target is proved |+>/|->,
      does {e not} merge its operands;
    - an {e ancilla liveness} analysis: which wires are touched, when
      they are first and last used, and whether they are provably
      returned to |0> by circuit end.

    The analysis is deliberately one-sided: every fact it reports is a
    theorem about the concrete state prepared from |0...0> (the fuzz
    property [absint-sound] holds it to that against the dense
    simulator), but it is free to answer Unknown.  Facts feed the
    semantic lint rules ({!Lint.Rule.Dead_gate} and friends) and the
    {!Optimize.fold_known_states} rewrite pass. *)

(** The per-qubit abstract value. *)
module Basis : sig
  (** The six single-qubit stabilizer states: the Bloch-axis
      eigenstates |0>, |1>, |+>, |->, |i> = (|0>+i|1>)/sqrt2,
      |-i> = (|0>-i|1>)/sqrt2.  Tracked as rays — a gate that only
      changes the global phase of a factor leaves the abstract state
      fixed. *)
  type state = Zero | One | Plus | Minus | PlusI | MinusI

  type t =
    | Bot  (** unreachable (join identity); never produced by {!analyze} *)
    | Known of state
    | Unknown

  val join : t -> t -> t

  (** [leq a b]: the lattice order Bot < Known s < Unknown. *)
  val leq : t -> t -> bool

  val equal : t -> t -> bool

  (** ["|0>"], ["|+>"], ... *)
  val state_to_string : state -> string

  (** As {!state_to_string}; [Unknown] renders as ["?"], [Bot] as
      ["_"]. *)
  val to_string : t -> string

  (** [amplitudes s] is the (<0|s>, <1|s>) pair — the concrete vector
      the abstract state stands for, used by the soundness oracle. *)
  val amplitudes : state -> Mathkit.Cx.t * Mathkit.Cx.t
end

(** A fact the interpreter proved about one gate, relative to the
    abstract state the gate executes in.  Both are {e exact} statements
    about the state vector (amplitude +1, not merely up to phase), so a
    rewrite pass may delete or replace the gate without changing the
    state prepared from |0...0>. *)
type fact =
  | Dead of string
      (** the gate provably leaves the state vector exactly unchanged
          (e.g. a CNOT whose control is |0>, Z on |0>, X on |+>); the
          string says why *)
  | Demoted of Gate.t list * string
      (** the gate provably acts as this cheaper body (e.g. a CNOT
          whose control is |1> acts as X on the target; a CNOT whose
          target is |-> acts, by phase kickback, as Z on the control) *)

(** One line of the per-gate table: the abstract state {e after} the
    gate, the partition size after it, and any proved fact. *)
type row = {
  index : int;
  gate : Gate.t;
  after : Basis.t array;  (** one entry per wire; do not mutate *)
  classes : int;  (** number of partition classes after this gate *)
  fact : fact option;
}

(** Per-wire liveness summary. *)
type wire_liveness = {
  first_use : int option;  (** gate index of the first touch *)
  last_use : int option;
  final : Basis.t;
  restored : bool;  (** touched, and provably back to |0> at the end *)
}

type result = {
  n : int;
  rows : row list;  (** in gate order *)
  final : Basis.t array;
  partition : int array;
      (** final class label per wire; labels are arbitrary — wires with
          equal labels are (possibly) entangled with each other and
          provably unentangled with every other class *)
  classes : int list list;
      (** the final partition as sorted wire lists, sorted by first
          wire *)
  liveness : wire_liveness array;
  dead : (int * Gate.t * string) list;  (** gate index, gate, reason *)
  demoted : (int * Gate.t * Gate.t list * string) list;
  merges : int;  (** partition merges performed (entangling events) *)
}

(** [analyze ?trace c] runs the interpreter.  When [trace] is given it
    records an ["absint"] span with fact counters (dead gates, demoted
    gates, merges, final class count, known/restored wires). *)
val analyze : ?trace:Trace.t -> Circuit.t -> result

val fact_to_string : fact -> string

(** [class_to_string [0;2]] is ["{q0,q2}"]. *)
val class_to_string : int list -> string

(** [state_table r] renders the per-gate table: one line per gate with
    the abstract state after it (all wires on registers of at most 12
    qubits, only the gate's support wires otherwise), the partition
    class count, and any fact. *)
val state_table : result -> string

(** [summary r] renders the end-of-circuit facts: final state,
    partition, ancilla liveness, and fact counters. *)
val summary : result -> string
