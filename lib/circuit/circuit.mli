(** Quantum circuits: an ordered gate list over a fixed-width qubit
    register.

    Gates apply left to right: the circuit [g1; g2] has transfer matrix
    [U2 * U1].  This is the intermediate representation every stage of
    the compiler consumes and produces. *)

type t

(** [make ~n gates] is a circuit on [n] qubits.
    @raise Invalid_argument if [n <= 0] or a gate touches a qubit
    outside [0 .. n-1]. *)
val make : n:int -> Gate.t list -> t

(** [of_gates gates] infers the width from the largest qubit used
    (at least 1 qubit).  Edge case: [of_gates []] is {e not} an error —
    it is the 1-qubit identity circuit, the narrowest register the IR
    admits ([Lint.Rule.Width_mismatch] reports it as declared-but-empty
    padding). *)
val of_gates : Gate.t list -> t

(** [empty n] is the identity circuit on [n] qubits. *)
val empty : int -> t

val n_qubits : t -> int
val gates : t -> Gate.t list
val gate_count : t -> int
val is_empty : t -> bool

(** [append c g] adds [g] at the end.  This copies the whole gate list
    (O(n)); to accumulate many gates use {!Builder} instead.
    @raise Invalid_argument if [g] does not fit the register. *)
val append : t -> Gate.t -> t

(** [concat a b] runs [a] then [b].
    @raise Invalid_argument when widths differ. *)
val concat : t -> t -> t

(** [inverse c] reverses the gate order and takes adjoints; running
    [concat c (inverse c)] is the identity. *)
val inverse : t -> t

(** [widen c n] re-declares the circuit on a larger register.
    @raise Invalid_argument if [n < n_qubits c]. *)
val widen : t -> int -> t

(** [rename f c] renames qubits through [f]; the width is re-inferred
    from the renamed gates (at least [n_qubits c]).  The register never
    shrinks: a rename mapping every gate below the old maximum keeps
    the original width, leaving trailing unused wires (which
    [Lint.Rule.Width_mismatch] flags) rather than silently renumbering
    the register.  Use {!make} with the narrower [n] to shrink
    deliberately.
    @raise Invalid_argument if [f] merges two qubits of one gate (see
    {!Gate.rename}). *)
val rename : (int -> int) -> t -> t

(** [compact a b] relabels the pair [a], [b] jointly onto the qubits
    they touch: each qubit gets the next free index in [0 .. k-1] at
    its first use, reading [a] then [b], each gate by gate and each
    gate's {!Gate.support} in order, where [k] is the number of qubits
    either touches.  Both results are on [max 1 k] qubits.  The
    dropped wires only ever carry the identity, so [a] and [b] are
    equivalent, global phase included, exactly when the compacted pair
    is.  [compact c c] is [c] alone on its support. *)
val compact : t -> t -> t * t

val equal : t -> t -> bool

(** Static metrics used by the cost function of Eqn. 2. *)
type stats = {
  t_count : int;  (** number of T and T-dagger gates *)
  cnot_count : int;  (** number of CNOT gates *)
  gate_volume : int;  (** total gate count *)
}

val stats : t -> stats

val t_count : t -> int
val cnot_count : t -> int

(** All static metrics in one pass.  [full_stats c] computes in a single
    walk of the gate list exactly what [stats c], [depth c] and
    [t_depth c] would compute in three; telemetry sinks ({!Trace} and
    the compiler report) use it so snapshotting large circuits stays
    linear with a small constant. *)
type full_stats = {
  fs_t_count : int;  (** = [(stats c).t_count] *)
  fs_cnot_count : int;  (** = [(stats c).cnot_count] *)
  fs_gate_volume : int;  (** = [(stats c).gate_volume] *)
  fs_depth : int;  (** = [depth c] *)
  fs_t_depth : int;  (** = [t_depth c] *)
}

val full_stats : t -> full_stats

(** [depth c] is the circuit depth: the length of the longest chain of
    gates sharing qubits, i.e. the number of time steps when every gate
    takes one step and gates on disjoint qubits run in parallel.  The
    empty circuit has depth 0. *)
val depth : t -> int

(** [t_depth c] counts only T/T-dagger layers along the critical path —
    the fault-tolerance latency metric of Amy-Maslov-Mosca (the paper's
    ref. [10]). *)
val t_depth : t -> int

(** [uses_only_native c] holds when every gate is in the transmon
    library (see {!Gate.is_transmon_native}). *)
val uses_only_native : t -> bool

(** [fold f init c] folds over gates in execution order. *)
val fold : ('a -> Gate.t -> 'a) -> 'a -> t -> 'a

val iter : (Gate.t -> unit) -> t -> unit

(** [map_gates f c] replaces each gate [g] by the gates [f g], calling
    [f] in execution order. *)
val map_gates : (Gate.t -> Gate.t list) -> t -> t

val to_string : t -> string

(** Amortized-O(1) gate accumulation.

    Folding {!append} over a gate stream is quadratic (each call copies
    the list).  A [Builder] validates each gate as it arrives and keeps
    the sequence in reverse, so [n] additions plus one {!Builder.to_circuit}
    cost O(n) total.  Used by the routers, the format parsers and the
    benchmark generators — anywhere a circuit is grown gate by gate. *)
module Builder : sig
  type circuit := t
  type t

  (** [create ~n] starts an empty builder over an [n]-qubit register.
      @raise Invalid_argument if [n <= 0]. *)
  val create : n:int -> t

  (** [add b g] appends [g].
      @raise Invalid_argument if [g] does not fit the register (same
      contract as {!make}). *)
  val add : t -> Gate.t -> unit

  (** [add_list b gates] appends in order. *)
  val add_list : t -> Gate.t list -> unit

  (** Number of gates added so far. *)
  val length : t -> int

  (** [to_circuit b] freezes the accumulated sequence (the builder
      remains usable; later additions do not affect circuits already
      frozen). *)
  val to_circuit : t -> circuit
end
