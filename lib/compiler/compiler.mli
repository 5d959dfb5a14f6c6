(** The technology-dependent quantum logic synthesis tool — the paper's
    Fig. 2 pipeline, end to end:

    {v
    source file ((.pla | .qasm | .qc | .real))
      |  front-end: ESOP -> reversible cascade   (classical inputs)
      v
    technology-independent circuit
      |  (optional) technology-independent optimization
      |  generalized-Toffoli -> Toffoli   (Barenco)
      |  Toffoli/CZ/SWAP -> 1-qubit + CNOT library
      |  CNOT reversal (Fig. 6) + CTR rerouting (Figs. 4-5)
      |  cost-driven local optimization on the mapped circuit
      |  QMDD formal equivalence check against the input
      v
    technology-dependent OpenQASM
    v}

    {2 Failure semantics}

    The primary entry point is {!compile_checked}: it returns a
    {!report} or a non-empty list of structured {!Diagnostic.t}s, and
    never lets an exception escape.  Per-stage resource {!budgets}
    degrade gracefully — a stage that runs out returns the best circuit
    it has, the report marks the stage in {!report.degraded}, and the
    pipeline continues.  The {!Fallback} verification mode never aborts
    either: it walks QMDD → staged QMDD → dense-simulator oracle →
    {!Unverified} with the reason.  The raising {!compile} is a thin
    compatibility wrapper.

    Verification, strict-mode sweep checks and the fold-states check all
    go through {!Oracle} under one budget: the verification mode's node
    budget, the compile deadline, and {!Fallback}'s [max_sim_qubits]
    (else {!Oracle.default_budget}'s) as the dense-simulator cap. *)

(** What the user handed the tool. *)
type input =
  | Quantum of Circuit.t
      (** an already-quantum (or reversible) circuit *)
  | Classical of Qformats.Pla.t
      (** a switching function for the ESOP front-end *)

(** How (whether) to formally verify the output against the input. *)
type verification_mode =
  | Skip
  | Qmdd_check of { node_budget : int option }
      (** QMDD equivalence (direct or staged); reports
          [Budget_exceeded] when the diagram outgrows the budget *)
  | Fallback of { node_budget : int option; max_sim_qubits : int }
      (** the resilient chain: budgeted QMDD equivalence, then the
          staged proof, then — when both exhaust the node budget — the
          dense-matrix simulator oracle for registers of at most
          [max_sim_qubits] qubits (further clamped to
          {!Sim.max_unitary_qubits}), and finally {!Unverified} with
          the reason.  Never raises and never reports
          [Budget_exceeded]. *)

(** Which rerouting strategy handles uncoupled CNOTs. *)
type router =
  | Ctr  (** the paper's connectivity-tree reroute with per-gate
             swap-back (Section 4) *)
  | Weighted_ctr of Calibration.t
      (** CTR with Dijkstra path selection: each SWAP hop between two
          coupled qubits is priced by {!Calibration.swap_hop_weight}, so
          routes minimize total error instead of hop count *)
  | Tracking
      (** baseline for comparison: accumulate SWAPs, track the layout,
          restore once at the end *)

(** Per-stage resource budgets.  Every field defaults to [None] =
    unlimited; a stage that exhausts its budget stops with the best
    circuit produced so far, the report marks it in {!report.degraded},
    and compilation continues — budgets never abort. *)
type budgets = {
  deadline_seconds : float option;
      (** wall-clock deadline for the whole compile, measured on the
          monotonic clock from the moment {!compile_checked} is
          entered.  Checked at stage boundaries and between
          optimization sweeps: once past, optional stages
          (pre/post-optimization, placement) are skipped and
          verification reports [Unverified]/[Budget_exceeded] without
          running.  The deadline is also enforced {e inside} the
          verification stage: an in-flight QMDD equivalence check
          probes the clock per gate multiplication and per 1024 node
          allocations, so a check that explodes after the stage starts
          degrades down the fallback chain ([Unverified] under
          {!Fallback}, [Budget_exceeded] under {!Qmdd_check}) instead
          of overrunning the budget.  Strict-mode sweep checks stop at
          the deadline the same way. *)
  max_optimize_iterations : int option;
      (** cap on fixpoint sweeps for each optimization stage
          (pre-optimize, post-optimize swap-level and gate-level
          individually) *)
  swap_budget : int option;
      (** cap on routing SWAP insertions; once exhausted, remaining
          uncoupled CNOTs are left as written — the unitary is
          preserved but those gates are not device-legal (counted in
          the route span's [unrouted_cnots] counter) *)
}

(** All budgets unlimited. *)
val no_budgets : budgets

(** The settings of one compile.  No field is a function, and
    {!canonical_options} renders each one. *)
type options = {
  device : Device.t;
  cost : Cost.t;
  router : router;
  pre_optimize : bool;
      (** optimize the technology-independent form first (always with
          the gate-count cost of Eqn. 2 — hardware-aware costs such as
          [Cost.Log_fidelity] only apply after mapping) *)
  post_optimize : bool;  (** optimize the mapped circuit (the paper's
      headline optimization step) *)
  fold_states : bool;
      (** run {!Optimize.fold_known_states} after post-optimization:
          delete gates the {!Absint} interpreter proves dead and demote
          gates with proved-constant controls.  Sound only for circuits
          run from |0...0> — it preserves the prepared state, not the
          unitary — so it is off by default and the pipeline's
          unitary-equivalence verification always compares against the
          pre-fold circuit (the fold's own zero-state oracle covers the
          rest; a fold the oracle rejects or cannot settle degrades the
          report and keeps the pre-fold circuit).
          [qsc compile --fold-states] turns it on. *)
  use_placement : bool;
      (** choose an initial logical-to-physical qubit placement that
          shortens CTR SWAP paths (the paper's future-work
          optimization; off by default to match the published flow) *)
  verification : verification_mode;
  check_contracts : bool;
      (** audit every inter-stage handoff with the static pass
          contracts of {!Lint.Contract}: after decomposition only
          native gates, after routing device-legal, after each
          optimization stage no gate-volume growth.  A broken contract
          surfaces as a [Contract_violation] diagnostic from
          {!compile_checked} (and {!Lint.Contract.Violated} from
          {!compile}) naming the stage that fired.  When routing
          degraded under a [swap_budget], the device-legality contract
          is skipped — the unrouted CNOTs are expected.  Off by
          default; [qsc compile --strict] turns it on.  Strict mode
          also checks every optimizer sweep with {!Oracle.unitary}: a
          sweep it rejects or cannot settle is dropped, and the stage
          stops and is marked in {!report.degraded}. *)
  rewrite_rules : Rewrite.selection;
      (** which {!Rewrite} templates and engine passes the optimizer's
          sweeps may apply (default {!Rewrite.default_selection};
          with {!Rewrite.empty_selection} a sweep is inverse-pair
          cancellation plus identity-window removal only).
          [qsc compile --opt-rules LIST] sets it. *)
  budgets : budgets;
}

(** [verification_mode ?mode ?node_budget ?max_sim_qubits ()] is the
    verification [mode] ([`Fallback] by default) with a QMDD node
    budget of [node_budget] nodes (0 = unlimited) and, for
    {!Fallback}, a dense oracle of [max_sim_qubits] qubits.  An
    omitted number takes the default: 8,000,000 nodes, and
    {!Oracle.default_budget}'s width (10 qubits).  [qsc compile]'s
    [--verify], [--node-budget] and [--max-sim-qubits] and the
    matching [qsc serve] request options go through it. *)
val verification_mode :
  ?mode:[ `Skip | `Qmdd | `Fallback ] ->
  ?node_budget:int ->
  ?max_sim_qubits:int ->
  unit ->
  verification_mode

(** [default_options ~device] is the one default compile, which
    [qsc compile -d D FILE] and a [qsc serve] request without options
    both start from: Eqn. 2 cost, the CTR router, both optimization
    stages on, placement and state folding off, no contracts, the
    default rewrite rules, no per-stage budgets, and
    [verification_mode ()]: {!Fallback} verification with an
    8,000,000-node budget and a 10-qubit dense oracle.  The node budget
    counts cumulative unique-table allocation — a memory guard: the
    96-qubit Table 8 verifications allocate a few million nodes while
    the live diagram stays in the thousands, and a run that would
    exhaust memory moves down the fallback chain instead. *)
val default_options : device:Device.t -> options

type verification_result =
  | Verified  (** QMDD pointers matched (single whole-circuit check) *)
  | Verified_staged
      (** verified through the equivalence chain reference = native,
          per-gate routed blocks = their gates, mapped-unoptimized =
          optimized.  When [native] is the reference lowered gate by
          gate, its link follows the two lowering steps: each distinct
          MCT = its Toffoli cascade, each distinct Toffoli-level gate =
          its Clifford+T lowering.  Every link is proved on the qubits
          it touches.  Used on wide registers where the single-shot
          diagram would exhaust the node budget (the larger Table 8
          benchmarks); exactly as formal, many small proofs instead of
          one. *)
  | Verified_sim
      (** verified by the dense-matrix simulator oracle ({!Fallback}
          mode only): exact unitary comparison, independent of the
          QMDD engine, limited to small registers *)
  | Mismatch
      (** the output provably differs: the compiler broke the circuit.
          Also the verdict, with a verify-stage warning, when a CTR
          route left no CNOT unrouted yet the report's [unoptimized]
          circuit is not the blockwise routing of the native circuit *)
  | Budget_exceeded  (** diagram grew past the node budget
                         ({!Qmdd_check} mode) *)
  | Unverified of string
      (** {!Fallback} mode ran out of options; the string says why
          (node budget exhausted and the register too wide for the
          oracle, deadline, ...).  Not a proof of difference. *)
  | Skipped

(** [verified r] holds for [Verified], [Verified_staged], and
    [Verified_sim]. *)
val verified : verification_result -> bool

type report = {
  reference : Circuit.t;
      (** what verification compares against: the input circuit (widened
          to the device register, and relabelled by the placement when
          one was used), or the front-end cascade for classical inputs *)
  placement : int array option;
      (** the logical-to-physical assignment, when [use_placement] *)
  unoptimized : Circuit.t;  (** mapped, before post-optimization *)
  optimized : Circuit.t;  (** the final technology-dependent circuit *)
  unoptimized_cost : float;
  optimized_cost : float;
  percent_decrease : float;
  verification : verification_result;
  degraded : (Diagnostic.stage * string) list;
      (** stages that ran out of budget and stopped early, with the
          reason, in pipeline order; [[]] for a clean compile.  Each
          entry also appears as a [Budget_exhausted] warning in
          [diagnostics] and in {!report_to_json}; one made while the
          stage's span was open also as a ["degraded"] counter on that
          span (see {!compile_checked}). *)
  diagnostics : Diagnostic.t list;
      (** non-fatal (warning-severity) diagnostics accumulated during
          the compile *)
  elapsed_seconds : float;
      (** synthesis wall-clock time (monotonic), excluding the front-end
          and verification *)
  verification_seconds : float;  (** verification wall-clock time *)
  trace : Trace.span list;
      (** per-pass spans recorded during compilation; [[]] when compiled
          with the default disabled sink *)
}

(** [degraded r] holds when any stage degraded. *)
val degraded : report -> bool

exception Compile_error of string

(** [compile_checked ?trace ?inject options input] runs the full
    pipeline and never raises: the result is either a report (possibly
    with {!report.degraded} stages) or a non-empty diagnostic list whose
    error-severity entries say what stopped the compile and where.
    Every exception a stage is known to throw — and anything
    unexpected — is converted into a diagnostic naming the stage:
    {!Lint.Contract.Violated} becomes [Contract_violation],
    {!Decompose.Not_enough_qubits} becomes [Capacity],
    {!Route.Unroutable} becomes [Unroutable], [Invalid_argument]
    (corrupt gate streams: out-of-range wires, non-finite angles)
    becomes [Invalid_gate], and anything else becomes [Internal].
    Every circuit a stage hands to the next is scanned by
    {!Lint.Rule.Non_finite_angle}, so a NaN or infinite rotation angle,
    whether in the input, written by a stage or injected, is an
    [Invalid_gate] error naming the stage that produced it, before it
    can poison the QMDD value table.

    Options that mean nothing whatever the input are refused before the
    front-end runs, as one [Driver]-stage [Unsupported] diagnostic
    naming each fault: a [Cost.Linear] weight that is not a finite
    number (it prices every circuit alike, so no sweep could lower it),
    and a calibration, of the cost or of a [Weighted_ctr] router, made
    for a device with another register or coupling map.  Under a
    [Cost.Log_fidelity] cost, a route that the SWAP budget left with
    unrouted CNOTs is a [Route]-stage [Budget_exhausted] error: the cost
    is undefined on gates the device cannot execute.

    When [trace] is a recording sink (default {!Trace.disabled}), every
    stage that runs records a span named {!Diagnostic.stage_to_string}
    of its stage; an optional stage that is off or skipped past the
    deadline records none.  ["front-end"] has an after-snapshot only.
    ["pre-optimize"] (plus one ["pre-optimize/iteration-<i>"] per
    fixpoint sweep), ["decompose"], ["route"] (with CTR counters:
    rerouted/reversed CNOTs, SWAPs inserted, path hops, unrouted CNOTs)
    and ["expand-swaps"] have before- and after-snapshots.
    ["post-optimize"] (with ["post-optimize/swap-level/..."] and
    ["post-optimize/gate-level/..."] iterations) snapshots route's
    output, SWAPs unexpanded, before, and its result after.  ["place"]
    has no snapshot, only a [moved_qubits] counter.  With
    [fold_states], a ["fold-states"] span follows post-optimize, with
    its counters and no snapshot.  ["verify"] has an after-snapshot of
    the pre-fold output only, with QMDD unique-table and
    operation-cache counters plus [fallback_sim].  A pre-optimize,
    route or post-optimize span carries a ["degraded"] counter of 1
    when the stage marked itself degraded while it ran.  A skipped
    stage, a fold-states revert and a verification that gave up are
    marked in {!report.degraded} with no such counter.

    A snapshot of a circuit that is not yet mapped (front-end,
    pre-optimize and decompose, and route's before-snapshot) is priced
    by [options.cost] when that is a [Cost.Linear] cost, and by
    {!Cost.eqn2} under [Cost.Log_fidelity], which is defined only on
    circuits the device executes; pre-optimize's own sweeps use Eqn. 2
    too.  From route's after-snapshot on, every snapshot is priced by
    [options.cost].  Tracing only observes: with or without a
    recording sink, the result is the same, but for the spans and the
    timings.

    [inject] is a fault-injection hook for robustness testing (see
    {!Faultinject}): it is called at every stage handoff with the
    stage's output circuit, and whatever it returns (or raises) flows
    through the pipeline's normal guards and the non-finite-angle scan.
    It is called for every circuit-producing stage ([Front_end] through
    [Post_optimize]), an optional stage that does not run included,
    with the circuit that stage hands on; [Driver] and [Verify] produce
    no circuit and are never passed. *)
val compile_checked :
  ?trace:Trace.t ->
  ?inject:(Diagnostic.stage -> Circuit.t -> Circuit.t) ->
  options ->
  input ->
  (report, Diagnostic.t list) result

(** [compile ?trace ?inject options input] is {!compile_checked} with
    the historical raising surface.
    @raise Compile_error on any failure other than a broken contract
    (message = {!Diagnostic.to_string} of the first error diagnostic).
    @raise Lint.Contract.Violated when [check_contracts] is set and a
    stage hands over a circuit breaking its contract. *)
val compile :
  ?trace:Trace.t ->
  ?inject:(Diagnostic.stage -> Circuit.t -> Circuit.t) ->
  options ->
  input ->
  report

(** [extension path] is the lowercased extension of [path]'s basename,
    dot included ([""] when there is none).  Dots in directory names
    never count: [extension "runs.v2/adder" = ""]. *)
val extension : string -> string

(** [parse_file_checked path] dispatches on the extension ([.pla],
    [.qasm], [.qc], [.real]) and never raises: parse failures carry the
    file and 1-based line ([Parse] kind), unreadable files the system
    message ([Io]), unknown extensions [Unsupported]. *)
val parse_file_checked : string -> (input, Diagnostic.t) result

(** [parse_file path] is the raising wrapper over
    {!parse_file_checked}.
    @raise Compile_error on any failure, with the rendered diagnostic
    ([file:line: ...] prefix included) as the message. *)
val parse_file : string -> input

(** [parse_source_checked ~format ?path source] parses an in-memory
    [source] string as the named format — ["pla"], ["qasm"], ["qc"] or
    ["real"], case-insensitively and with or without the leading dot —
    and never raises.  Diagnostics name [path] when given and a
    [<format source>] placeholder otherwise.  This is how the serve
    daemon parses request bodies: no temp files, identical parsers to
    {!parse_file_checked}. *)
val parse_source_checked :
  format:string -> ?path:string -> string -> (input, Diagnostic.t) result

(** {2 Content digests}

    Stable fingerprints for content-addressed compile caching (see
    {!Serve}): a request's cache key is the triple
    ([source_digest], [device_digest], [options_digest]).  All three
    are hex MD5 strings over canonical serializations — no file paths,
    no timestamps. *)

(** [source_digest s] fingerprints a source text verbatim. *)
val source_digest : string -> string

(** [device_digest d] fingerprints a device via
    {!Device.to_dict_string}, so two loads of the same table collide
    regardless of where the file lived. *)
val device_digest : Device.t -> string

(** [canonical_options o] is a stable [key=value;...] rendering of
    every field but [device] (which {!device_digest} covers): [cost]
    (by its content, {!Cost.to_string}: weights or calibration digest),
    [router] (a [Weighted_ctr] router as its calibration's
    {!Calibration.digest}), [pre_optimize],
    [post_optimize], [fold_states], [use_placement], [verification]
    with its node budget and dense-oracle width, [check_contracts],
    [rewrite_rules] and the three [budgets]. *)
val canonical_options : options -> string

(** [options_digest o] is the hex MD5 of {!canonical_options}. *)
val options_digest : options -> string

(** [emit_qasm report] renders the final circuit as OpenQASM 2.0. *)
val emit_qasm : report -> string

(** [verification_to_string r] for logs and tables. *)
val verification_to_string : verification_result -> string

(** [verification_tag r] is the stable machine-readable tag used in
    JSON outputs: ["verified"], ["verified-staged"], ["verified-sim"],
    ["mismatch"], ["budget-exceeded"], ["unverified"], ["skipped"]. *)
val verification_tag : verification_result -> string

val pp_report : Format.formatter -> report -> unit

(** [report_to_json ?meta r] renders the report as a JSON object:
    [meta] fields first (e.g. benchmark name, device), then
    ["unoptimized"] / ["optimized"] snapshot objects (gate volume,
    depth, T-count, T-depth, CNOT count, and the report's own cost
    under the compile's cost function), ["percent_decrease"],
    ["placement"] (array or null), ["verification"] tag
    (["verified"], ["verified-staged"], ["verified-sim"],
    ["mismatch"], ["budget-exceeded"], ["unverified"], ["skipped"]),
    ["verification_reason"] (string for [Unverified], else null),
    ["degraded"] — a list of [{"stage", "reason"}] objects —
    ["diagnostics"], ["elapsed_seconds"], ["verification_seconds"],
    and ["passes"] — the trace spans via {!Trace.span_to_json}. *)
val report_to_json : ?meta:(string * Trace.Json.t) list -> report -> Trace.Json.t
