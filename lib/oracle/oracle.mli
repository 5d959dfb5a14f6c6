(** The exact equivalence oracle: the one place that decides whether
    two circuits agree, under one budget.

    {!unitary} compares full transfer matrices, global phase included;
    {!zero_state} compares only the states prepared from |0...0> (what
    {!Optimize.fold_known_states} keeps).  Both run on the dense
    simulator up to the budget's dense cap and on QMDD beyond it, and
    neither raises: a check the budget cannot cover is [Gave_up]. *)

type budget = {
  node_budget : int option;  (** QMDD node allocations per check *)
  deadline_ns : int64 option;
      (** a {!Trace.now_ns} instant.  QMDD probes it mid-check; the
          dense simulator only before it starts. *)
  dense_qubits : int;
      (** widest register for the dense simulator, clamped to
          {!Sim.max_unitary_qubits} *)
}

(** No node budget, no deadline, dense simulation up to 10 qubits (the
    [--max-sim-qubits] default): past that a dense unitary's 4^n
    entries make QMDD the cheaper engine. *)
val default_budget : budget

type engine = Dense | Qmdd

type give_up =
  | Node_budget
  | Deadline
  | Too_wide of { qubits : int; cap : int }  (** over the dense cap *)
  | Failed of string  (** the engine raised; the message says how *)

type verdict = Equal | Different | Gave_up of give_up

(** [unitary ?engine ?stats budget a b]: do [a] and [b] have exactly the
    same unitary?  [engine] overrides the width-based choice; [stats]
    gets the QMDD manager's counters after every QMDD check. *)
val unitary :
  ?engine:engine ->
  ?stats:(Qmdd.stats -> unit) ->
  budget ->
  Circuit.t ->
  Circuit.t ->
  verdict

(** [zero_state budget a b]: do [a] and [b] prepare exactly the same
    state from |0...0>?  QMDD runs it as rank-1 basis-state evolution. *)
val zero_state : budget -> Circuit.t -> Circuit.t -> verdict

(** For reports, e.g. ["QMDD node budget exhausted"]. *)
val give_up_to_string : give_up -> string

(** [refusal v] is [None] for [Equal], otherwise why a rewrite checked
    with verdict [v] cannot be kept. *)
val refusal : verdict -> string option
