(** The [.qc] quantum-circuit format — the input language of the paper's
    first benchmark set ("Optimal Single-target Gates" ship as [.qc]
    files of one-qubit gates and CNOTs).

    Dialect accepted (one gate per line between [BEGIN] and [END]):

    {v
    .v q0 q1 q2      variable declaration (order = qubit index)
    .i q0 q1         inputs (recorded, not interpreted)
    .o q2            outputs (recorded, not interpreted)
    BEGIN
    H q0
    T q0
    T* q0
    S q1
    S* q1
    X q2             (also: t1 q2, not q2)
    Y q0
    Z q0
    cnot q0 q1       (also: t2 q0 q1, tof q0 q1) — last operand is target
    t3 q0 q1 q2      (also: tof q0 q1 q2, toffoli ...)
    t5 a b c d e     generalized Toffoli, last operand is target
    swap q0 q1       (also: f2)
    cz q0 q1
    END
    v}

    Comments start with [#]. *)

(** [line] is 1-based.  Failures only detectable once the whole input
    has been read (a missing mandatory declaration) are reported on the
    last line of the input, never "line 0". *)
exception Parse_error of { line : int; message : string }

type t = {
  circuit : Circuit.t;
  inputs : int list;  (** qubit indices declared with [.i] (may be empty) *)
  outputs : int list;  (** qubit indices declared with [.o] (may be empty) *)
  names : string array;  (** wire names in declaration order *)
}

val of_string : string -> t
val to_string : Circuit.t -> string
