(** Local circuit optimization driven by the quantum cost function
    (Section 4, items 5 and 6 of the paper's procedure list): remove
    gate partitions that equal the identity and apply cheaper
    equivalent templates until the cost stops falling.

    {!optimize_budgeted} is the one loop.  Each sweep runs these passes
    in order:

    + inverse-pair cancellation ({!cancel_pass});
    + the enabled {!Rewrite} templates, one sweep
      ({!Rewrite.apply_templates});
    + [rotation-merge] ({!Rewrite.merge_rotations});
    + [phase-merge] ({!Rewrite.merge_phase_polynomial});
    + [clifford-normalize] ({!Rewrite.normalize_cliffords});
    + identity-window removal ({!remove_identity_windows}).

    Each pass is kept only if it does not raise the objective (the
    guard matters: phase merging can trade gates for T gates), and the
    sweep is kept only if the cost strictly falls.  The rule selection
    switches passes 2 to 5 on or off; with {!Rewrite.empty_selection}
    ([--opt-rules none]) a sweep is inverse-pair cancellation plus
    identity-window removal and nothing else.

    Every pass preserves the circuit's unitary exactly (not merely up
    to global phase).  When a [device] is supplied, rewrites never
    introduce a CNOT the coupling map forbids, so optimizing a mapped
    circuit keeps it mapped.

    {b Ownership rule.}  The module's only mutable state is the
    identity-window memo: one process-wide table under a mutex, held
    for one lookup or one insert and never across a simulation.  So
    every domain and thread may run optimize passes at once, a verdict
    any of them simulated is never simulated again, and results are
    identical (the cached verdict is a pure function of the window
    signature). *)

(** [cancels g h] holds when the later gate [h] undoes [g] exactly:
    self-inverse pairs (operand order ignored where the gate is
    symmetric), phase-family gates whose angles sum to 0 mod 2 pi, and
    same-axis rotations whose angles sum to 0. *)
val cancels : Gate.t -> Gate.t -> bool

(** [cancel_pass ?lookback c] sweeps once, deleting each gate together
    with an earlier gate it {!cancels} when everything between commutes
    with it ({!Gate.commutes}).  [lookback] bounds the scan depth
    (default 50). *)
val cancel_pass : ?lookback:int -> Circuit.t -> Circuit.t

(** [remove_identity_windows ?max_window c] deletes contiguous gate
    windows (up to [max_window] gates, default 6, spanning at most 3
    qubits) whose product is exactly the identity.

    One forward scan over the gates: each gate's operands are read once
    into flat arrays, and from each start the window's support grows
    gate by gate until a fourth qubit would join, which bounds every
    candidate window.  The candidates are tried longest first; the
    first identity is deleted and the scan resumes after it.

    Sound pre-filters run first (exact inverse pairs; qubits touched by
    a single parameter-free gate).  The remaining windows get a dense
    {!Sim.unitary} verdict at tolerance 1e-9, memoized (see the
    ownership rule above) on the window's support-compacted signature.
    The memo key is a byte string: per gate a kind byte, the compacted
    operands and the 64 bits of any angle.  It is injective for every
    [max_window], so a memo hit builds no gate list.  The output equals
    that of the list-based scan this replaced, and of checking every
    window without the memo: [test_optimize.ml] keeps that scan as a
    differential reference. *)
val remove_identity_windows : ?max_window:int -> Circuit.t -> Circuit.t

(** What a budgeted optimization run produced and why it stopped. *)
type outcome = {
  circuit : Circuit.t;  (** the cheapest circuit kept *)
  iterations : int;
      (** sweeps whose result was kept; the final, dropped sweep of a
          converged or reverted run is not counted *)
  hit_iteration_cap : bool;
      (** stopped by [max_iterations] before reaching a fixed point *)
  hit_deadline : bool;  (** stopped by [deadline_ns] *)
  reverted : string option;
      (** why the [check] oracle refused the last sweep (rejected it,
          or could not settle it within its budget), which ended the run *)
}

(** [optimize_budgeted ?device ?cost ?trace ?stage ?rules ?check
    ?max_iterations ?deadline_ns c] runs sweeps of the pass list above
    toward a fixed point of the cost function (default {!Cost.eqn2}),
    with the passes the rule selection [rules] enables (default
    {!Rewrite.default_selection}).  It stops early, with the best
    circuit kept so far, when the sweep count would exceed
    [max_iterations] or the clock passes [deadline_ns] (a
    {!Trace.now_ns} instant); both are checked between sweeps.  The
    result never costs more than the input.

    With [check] (strict mode), every sweep that would be kept is first
    compared with its input by {!Oracle.unitary} under that budget (give
    it the same deadline).  A sweep the oracle refuses is dropped and
    ends the run.

    A recording [trace] gets one span per sweep,
    ["<stage>/iteration-<i>"] (default stage ["optimize"]), with
    before/after snapshots under [cost] and an [improved] counter, the
    final dropped sweep included.  Kept rule passes bump
    ["rewrite/<rule>"], a pass the cost guard drops bumps
    ["rewrite/reverted"], and an oracle rejection bumps
    ["rewrite/oracle-rejected"]. *)
val optimize_budgeted :
  ?device:Device.t ->
  ?cost:Cost.t ->
  ?trace:Trace.t ->
  ?stage:string ->
  ?rules:Rewrite.selection ->
  ?check:Oracle.budget ->
  ?max_iterations:int ->
  ?deadline_ns:int64 ->
  Circuit.t ->
  outcome

(** [optimize ?device ?cost ?trace ?stage ?rules c] is
    [(optimize_budgeted ... c).circuit] with no budgets and no oracle:
    runs to the fixed point. *)
val optimize :
  ?device:Device.t ->
  ?cost:Cost.t ->
  ?trace:Trace.t ->
  ?stage:string ->
  ?rules:Rewrite.selection ->
  Circuit.t ->
  Circuit.t

(** What {!fold_known_states} did. *)
type fold_outcome = {
  circuit : Circuit.t;
  deleted : int;  (** gates removed as provably dead *)
  demoted : int;  (** gates replaced by a cheaper proved-equivalent body *)
  checked : bool;  (** the oracle ran (the interpreter found facts) *)
  reverted : string option;
      (** [Some reason] when the oracle rejected the fold or could not
          settle it within its budget; the input came back unchanged *)
}

(** [fold_known_states ?budget ?trace c] rewrites [c] using the facts
    the {!Absint} interpreter proves about the state prepared from
    |0...0>: gates reported dead are deleted, gates with constant
    controls are demoted to their uncontrolled bodies (CNOT with a
    proved-|1> control becomes X; by phase kickback, a CNOT onto a
    proved |-> target becomes Z on its control).

    Unlike every other pass in this module, the result preserves the
    {e prepared state}, not the full unitary — running the folded
    circuit from any input other than |0...0> may differ.  That is why
    the pass is off by default in {!Compiler.compile} (the [--fold-states]
    flag turns it on) and why the pipeline's unitary-equivalence
    verification compares against the pre-fold circuit.

    The folded circuit is checked against the input by
    {!Oracle.zero_state} under [budget] (default {!Oracle.default_budget});
    unless the oracle accepts, the input comes back unchanged with
    [reverted] set.  Demotions only introduce gates from the NOT/Z
    families on wires the original gate touched, so a device-legal
    native circuit stays device-legal.  Records a ["fold-states"] span
    with deleted/demoted counters on [trace]. *)
val fold_known_states :
  ?budget:Oracle.budget -> ?trace:Trace.t -> Circuit.t -> fold_outcome
