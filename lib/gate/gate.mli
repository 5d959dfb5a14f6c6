(** Quantum gates.

    The gate set follows the paper: the IBM transmon library
    {m X, Y, Z, H, S, S-dagger, T, T-dagger, CNOT} plus the
    technology-independent operators the compiler front-end produces and
    the back-end decomposes (CZ, SWAP, Toffoli, generalized Toffoli).

    Qubits are integers starting at 0.  Within a basis-state index, qubit
    0 is the most significant bit, matching the QMDD variable order
    [x0 -> x1 -> ...] of the paper's Fig. 1. *)

type t =
  | X of int
  | Y of int
  | Z of int
  | H of int
  | S of int
  | Sdg of int
  | T of int
  | Tdg of int
  | Rx of float * int  (** amplitude rotation exp(-i theta X / 2) *)
  | Ry of float * int  (** amplitude rotation exp(-i theta Y / 2) *)
  | Rz of float * int  (** phase rotation exp(-i theta Z / 2) *)
  | Phase of float * int
      (** diag(1, exp(i theta)): the u1-style phase rotation of the IBM
          library; [Phase pi q] is Z, [Phase (pi/2) q] is S, and
          [Phase (pi/4) q] is T, exactly *)
  | Cnot of { control : int; target : int }
  | Cz of int * int
  | Swap of int * int
  | Toffoli of { c1 : int; c2 : int; target : int }
  | Mct of { controls : int list; target : int }
      (** Generalized Toffoli T_n: NOT on [target] controlled on every
          qubit in [controls].  [Mct {controls = []; _}] is an X;
          one control is a CNOT; two controls a Toffoli. *)

(** [canonical_angle theta] folds an angle into (-pi, pi], snapping
    values within 1e-12 of 0 (or of the fold boundary) exactly. *)
val canonical_angle : float -> float

(** [phase_angle g] reads a gate as a diagonal phase rotation when it is
    one: Z, S, Sdg, T, Tdg and Phase all qualify; [Rz] does {e not}
    (it differs from [Phase] by a global phase, which matters once the
    gate is controlled). *)
val phase_angle : t -> (float * int) option

(** [phase_gate theta q] is the cheapest gate with diagonal
    [diag(1, exp(i theta))]: the named Clifford+T gate when the
    canonical angle is 0 (then [None]), a multiple of pi/4, otherwise a
    [Phase]. *)
val phase_gate : float -> int -> t option

val equal : t -> t -> bool

(** [kind g] is the index of [g]'s constructor in the declaration order
    of {!t}: 0 for [X] through 16 for [Mct].  The one numbering of gate
    kinds: the rewrite templates state the kind their pattern starts
    with, and the identity-window keys write it as each gate's first
    byte. *)
val kind : t -> int

(** [kind_count] is the number of constructors, one more than the
    largest {!kind}. *)
val kind_count : int

(** [mct controls target] builds the canonical gate for a NOT with the
    given controls: [X]/[Cnot]/[Toffoli] for 0/1/2 controls, [Mct] with
    sorted controls otherwise.
    @raise Invalid_argument if [target] is listed as a control or a
    control repeats. *)
val mct : int list -> int -> t

(** [support g] is the sorted list of qubits the gate touches. *)
val support : t -> int list

(** [max_qubit g] is the largest qubit index used. *)
val max_qubit : t -> int

(** [adjoint g] is the inverse gate: rotations negate their angle, S/T
    swap with their daggers, everything else is self-inverse.
    Involutive. *)
val adjoint : t -> t

(** [is_self_inverse g] holds when [adjoint g = g]. *)
val is_self_inverse : t -> bool

(** [commutes g h] is a sound (not complete) commutation test: [true]
    means the gates provably commute.  Covers disjoint supports, equal
    gates, diagonal pairs, diagonal or Rx gates against NOT-family
    gates, NOT-family pairs, and same-wire X/Rx and Y/Ry pairs.  It
    reads the operands off both constructors and allocates nothing:
    the optimizer's cancellation scan calls it for every gate pair it
    looks past. *)
val commutes : t -> t -> bool

(** [rename f g] renames every qubit through [f].
    @raise Invalid_argument if renaming merges two qubits of the gate. *)
val rename : (int -> int) -> t -> t

(** [is_transmon_native g] holds for gates in the IBM library:
    1-qubit X/Y/Z/H/S/Sdg/T/Tdg and CNOT. *)
val is_transmon_native : t -> bool

(** [is_t_like g] counts toward the T-count term of the cost function. *)
val is_t_like : t -> bool

(** [is_cnot g] recognizes CNOT gates for the cost function. *)
val is_cnot : t -> bool

(** [arity g] is the number of qubits the gate touches. *)
val arity : t -> int

(** [operand_count g] is the number of operand slots the constructor
    declares, controls included; [arity g] below it means two slots
    name the same wire. *)
val operand_count : t -> int

(** [base_matrix g] is the gate's transfer matrix over only its own
    qubits, ordered as listed in the constructor (controls first), i.e.
    Table 1 of the paper.  Exponential in the number of controls:
    intended for small gates. *)
val base_matrix : t -> Mathkit.Matrix.t

(** [apply_basis ~n g idx] is the column of the n-qubit embedding of [g]
    at basis state [idx], as a sparse list of (amplitude, row-index)
    pairs.  Qubit 0 is the most significant bit of [idx]. *)
val apply_basis : n:int -> t -> int -> (Mathkit.Cx.t * int) list

(** [embedded_matrix ~n g] is the full 2^n-by-2^n matrix of [g] acting on
    an n-qubit register. *)
val embedded_matrix : n:int -> t -> Mathkit.Matrix.t

(** [to_string g] renders e.g. ["H q2"] or ["CNOT q0, q1"]. *)
val to_string : t -> string
