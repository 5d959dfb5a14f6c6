(** Gate decompositions used by the compiler back-end (Section 4 of the
    paper).

    Three levels of lowering:
    - generalized Toffoli gates decompose into Toffoli cascades following
      Barenco et al., "Elementary gates for quantum computation"
      (Lemmas 7.2 / 7.3);
    - Toffoli, CZ and SWAP gates decompose into the transmon-native
      one-qubit + CNOT library (Nielsen & Chuang Fig. 4.9 for the
      Toffoli, the paper's Fig. 3 for SWAP);
    - CNOT orientation reversal conjugates with four Hadamards (the
      paper's Fig. 6).

    Every function returns gate lists that are drop-in replacements:
    same register, exactly the same unitary (no hidden phase change). *)

(** Raised by {!mct_to_toffoli} when the register has no free qubit to
    borrow and the gate has three or more controls. *)
exception Not_enough_qubits of string

(** [cnot_reverse ~control ~target] is the paper's Fig. 6: a CNOT with
    the roles of control and target exchanged, built from the opposite
    CNOT and four H gates. *)
val cnot_reverse : control:int -> target:int -> Gate.t list

(** [swap_as_cnots ?allows a b] expands a SWAP into three CNOTs
    (Fig. 3).  When [allows] is given, each CNOT is emitted in a
    direction it permits, inserting Fig. 6 reversals when needed — at
    most 7 gates, the bound quoted in Section 4.
    @raise Invalid_argument when [allows] permits neither direction. *)
val swap_as_cnots :
  ?allows:(control:int -> target:int -> bool) -> int -> int -> Gate.t list

(** [toffoli_to_clifford_t ~c1 ~c2 ~target] is the textbook 15-gate
    Clifford+T network: 7 T/T-dagger, 6 CNOT, 2 H. *)
val toffoli_to_clifford_t : c1:int -> c2:int -> target:int -> Gate.t list

(** [cz_to_cnot a b] conjugates the target with H: CZ = (I (x) H) CNOT
    (I (x) H). *)
val cz_to_cnot : int -> int -> Gate.t list

(** [mct_to_toffoli ~n ~controls ~target] rewrites a generalized Toffoli
    into plain Toffoli gates using qubits of the [n]-wide register that
    the gate does not touch as {e borrowed} (dirty) work qubits:

    - with at least [k-2] free qubits, the Barenco Lemma 7.2 V-chain of
      [4(k-2)] Toffolis;
    - with at least one free qubit, the Lemma 7.3 split into four
      smaller generalized Toffolis, recursively lowered;
    - gates with two or fewer controls are returned as-is
      (X/CNOT/Toffoli).

    Work qubits are restored, so the replacement is exact on the whole
    register whatever state the borrowed qubits carry.
    @raise Not_enough_qubits when [k >= 3] and no free qubit exists. *)
val mct_to_toffoli : n:int -> controls:int list -> target:int -> Gate.t list

(** [controlled_phase ~theta ~control ~target] is the controlled
    diag(1, e^(i theta)) from two CNOTs and three Phase gates — the
    primitive a QFT needs. *)
val controlled_phase : theta:float -> control:int -> target:int -> Gate.t list

(** [controlled_rz ~theta ~control ~target]: controlled
    exp(-i theta Z/2) from two CNOTs and two Rz. *)
val controlled_rz : theta:float -> control:int -> target:int -> Gate.t list

(** [controlled_ry ~theta ~control ~target]: controlled
    exp(-i theta Y/2) from two CNOTs and two Ry. *)
val controlled_ry : theta:float -> control:int -> target:int -> Gate.t list

(** [mcz ~n ~controls ~target] is a multi-controlled Z over the
    register: H-conjugation of the target turns it into a generalized
    Toffoli, which is lowered with {!mct_to_toffoli}.  Since Z is
    symmetric in its qubits, any qubit of the group may be named
    [target].
    @raise Not_enough_qubits as {!mct_to_toffoli}. *)
val mcz : n:int -> controls:int list -> target:int -> Gate.t list

(** [lower_gate ~n g] lowers one gate to the transmon-native library,
    composing the decompositions above.  Native gates pass through. *)
val lower_gate : n:int -> Gate.t -> Gate.t list

(** [to_native c] lowers a whole circuit to the native library.  The
    result is technology-{e ready} (library-wise) but not yet
    technology-{e mapped}: CNOTs may still violate a coupling map.
    @raise Not_enough_qubits as {!mct_to_toffoli}. *)
val to_native : Circuit.t -> Circuit.t
