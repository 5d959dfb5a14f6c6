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
    sweep is kept only if the cost strictly falls.

    A sweep ends early when it can only repeat its predecessor.  The
    passes after the previous sweep's last kept pass ran on the circuit
    that sweep returned and changed it not at all (each found nothing,
    or the guard reverted it).  So while a sweep has kept nothing, it
    stops on reaching that point, not improved: the passes are
    deterministic in the circuit, the device, the rules and the cost.
    It bumps ["rewrite/reverted"] once for each revert it skips.  The
    first sweep and every sweep that changes the circuit run in full,
    so outputs, iteration counts, sweep spans and counter totals are
    those of running every sweep in full.  The rule selection
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
    every domain and thread may run optimize passes at once, an answer
    any of them computed is never computed again, and results are
    identical (the cached answer is a pure function of its key). *)

(** [cancels g h] holds when the later gate [h] undoes [g] exactly:
    self-inverse pairs (operand order ignored where the gate is
    symmetric), phase-family gates whose angles sum to 0 mod 2 pi, and
    same-axis rotations whose angles sum to 0. *)
val cancels : Gate.t -> Gate.t -> bool

(** [cancel_pass ?lookback c] sweeps once, deleting each gate together
    with an earlier gate it {!cancels} when everything between commutes
    with it ({!Gate.commutes}).  [lookback] bounds the scan depth
    (default 50).

    The processed gates stay in the input's gate array; each kept gate
    has a mask of its qubits, bit [q mod 63] for qubit [q], and the
    index of the next older kept gate, so a deletion unlinks one index.
    A kept gate whose mask misses the incoming gate's shares no qubit
    with it, so it neither cancels nor blocks: the scan steps over it
    without testing it, and it still counts toward [lookback], as does
    every gate the incoming one commutes past.  Past 63 qubits masks
    can alias, which only sends a pair to the full test.  The tests
    read the constructors, so a gate the pass keeps allocates nothing
    (only [cancels] on a pair with a [Phase], or on two [Mct]s,
    allocates), and the three per-gate arrays are all the pass
    allocates.  When nothing cancels, the result is [c] itself, and the
    output list is built only when something was deleted. *)
val cancel_pass : ?lookback:int -> Circuit.t -> Circuit.t

(** [remove_identity_windows ?max_window c] deletes contiguous gate
    windows (up to [max_window] gates, default 6, spanning at most 3
    qubits) whose product is exactly the identity.

    One forward scan over the gates: each gate's operands are read once
    into flat arrays, and from each start the window's support grows
    gate by gate until a fourth qubit would join, which bounds every
    candidate window.  The longest identity among the candidates is
    deleted and the scan resumes after it.

    A candidate is the identity when it is an exact inverse pair, or
    when no qubit is touched by a single parameter-free gate and a
    dense {!Sim.unitary} at tolerance 1e-9 reads the identity.  The
    scan records, for each operand, the next gate that touches its
    qubit, so a start whose gate is parameter-free and has a qubit
    none of the next [max_window - 1] gates touches answers 0 at once:
    that qubit is touched by a single parameter-free gate in every
    candidate.  Every other start costs one memo lookup (see the
    ownership rule above).  The
    key is a byte string written while the window grows: per gate a
    kind byte, its operands labelled by the order the window first
    touches them, and the 64 bits of any angle.  It decodes one way
    only, and each shorter candidate's key is a prefix of it.  The
    memo maps a key to the longest identity among the keyed window's
    prefixes.  A miss tests the window and then asks for its longest
    proper prefix by that prefix's own key, so each distinct window
    is simulated at most once in the process.  The output equals that
    of the list-based scan this replaced, which tests every window
    without a memo: [test_optimize.ml] keeps that scan as a
    differential reference.  When no window is deleted, the result is
    [c] itself. *)
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
