(** Quantum Multiple-valued Decision Diagrams (Miller-Thornton, ISMVL
    2006; Niemann et al., TCAD 2016).

    A QMDD represents a 2^n-by-2^n transfer matrix as a directed acyclic
    graph.  A non-terminal node is labelled with a qubit variable and has
    four outgoing weighted edges, one per quadrant U00, U01, U10, U11 of
    the matrix it stands for; variable order is x0 (qubit 0) at the root,
    as in the paper's Fig. 1.

    This implementation is {e quasi-reduced}: every root-to-terminal path
    visits every variable in order, edges are normalized so the leftmost
    non-zero edge weight of every node is exactly 1, weights are
    canonicalized through a tolerance-based value table, and nodes are
    hash-consed.  Under those rules the representation is canonical:
    two circuits have pointer-equal QMDDs iff their matrices agree, which
    is exactly the equivalence check the compiler runs on every output.

    Canonicalization.  The value table snaps every computed weight to a
    representative: the first stored value within 2e-9 * min(1, |w|)
    of it, scanning the weight's 1e-9 bucket and then its eight
    neighbours, oldest first in each.
    Each representative gets an integer id in its manager (zero is 0,
    one is 1), and an edge carries its representative, so a weight that
    has an id is never snapped again.  The unique table compares a
    node's variable and, edge by edge, the child and the weight's grid
    class: representatives that {!Mathkit.Cx.round_key} maps to one
    point of its 1e-10 grid share a class, and so a node.  The multiply
    cache is keyed by the two node ids, the add cache by the two node
    ids and the class of the weight ratio.  The snapped product,
    quotient and sum of two representatives are memoized by their ids;
    an entry is used only while the value table holds as many
    representatives as when it was written, since a new one can change
    what a value snaps to.  The ids and the memo only save work: every
    diagram is the one the value table alone would give.

    All diagrams belong to a [manager] that owns the unique table and the
    operation caches.  Diagrams from different managers must not be
    mixed. *)

type manager
type edge

(** [create ~n] is a fresh manager for n-qubit matrices.
    @raise Invalid_argument when [n <= 0]. *)
val create : n:int -> manager

(** Observability counters kept by every manager.  The counters are
    plain integer bumps on paths that already pay for a hashtable
    probe, so they are always on — reading them costs one O(1) record
    build.  The multiply-cache counters count probes only: products
    with a terminal or identity operand are answered without one (see
    {!multiply}). *)
type stats = {
  unique_nodes : int;  (** live unique-table size right now *)
  peak_unique_nodes : int;  (** high-water mark of the unique table *)
  allocated : int;  (** cumulative hash-consed nodes (= node budget meter) *)
  mul_cache_hits : int;
  mul_cache_misses : int;
  add_cache_hits : int;
  add_cache_misses : int;
}

val stats : manager -> stats

(** Raised by operations when the manager's allocation exceeds the
    budget given to {!equivalent} / {!of_circuit}. *)
exception Node_budget_exceeded

(** Raised by {!equivalent} when the monotonic-clock deadline it was
    given passes mid-check. *)
exception Deadline_exceeded

(** [identity m] is the 2^n identity matrix. *)
val identity : manager -> edge

(** [zero m] is the all-zero matrix. *)
val zero : manager -> edge

(** [gate m g] builds the diagram of gate [g] embedded in the manager's
    n-qubit register.  Linear in n for every gate in the set (SWAP is
    built as three CNOTs).

    Each manager builds a gate once: the diagram is memoized per
    manager, keyed by the structurally-equal gate, so later calls
    return it without allocating or multiplying anything.  A check
    applies few distinct gates many times (the unoptimized = optimized
    check of T6_b's first gate on the 96-qubit machine applies 4,868
    gates, 40 of them distinct), and each build costs one node per
    register level.
    @raise Invalid_argument if the gate does not fit the register, or
    if a rotation/phase gate carries a non-finite (NaN or infinite)
    angle — such a weight would poison the canonical value table. *)
val gate : manager -> Gate.t -> edge

(** [multiply m a b] is the matrix product [a * b].

    When either operand is the manager's identity diagram over its
    variables, scaled by any weight (a gate's diagram is exactly that
    below its lowest qubit), the product is the other operand scaled
    by that weight, returned without recursing through the levels
    below.  Identity operands therefore bypass the multiply cache and
    are counted in neither [mul_cache_hits] nor [mul_cache_misses].
    The result is the same diagram the full recursion builds. *)
val multiply : manager -> edge -> edge -> edge

(** [add m a b] is the matrix sum. *)
val add : manager -> edge -> edge -> edge

(** [of_circuit ?node_budget m c] multiplies the circuit's gates
    onto the identity, producing the diagram of its transfer matrix.
    @raise Node_budget_exceeded when the optional budget is exceeded. *)
val of_circuit : ?node_budget:int -> manager -> Circuit.t -> edge

(** Canonical equality: same node, same weight. *)
val equal : edge -> edge -> bool

val is_identity : manager -> edge -> bool
val is_identity_up_to_phase : manager -> edge -> bool

(** [common_subsequence g1 g2] is a longest common subsequence of the
    two gate arrays, as index pairs (i, j) with [g1.(i)] structurally
    equal to [g2.(j)], rising strictly in both coordinates.  It runs the
    O(NP) algorithm of Wu, Manber, Myers and Miller (IPL 1990), whose
    work is O((n1 + n2) * P) where P counts the deletions from the
    shorter array beyond the length difference.  The work is bounded:
    past 256 diagonal extensions and snake steps per input gate, the
    aligner gives up and the result is [[]]. *)
val common_subsequence : Gate.t array -> Gate.t array -> (int * int) list

(** [equivalent ?up_to_phase ?node_budget c1 c2] formally
    verifies two circuits of equal width by building [U1 * U2-dagger]
    with the alternating scheme (gates of [c1] left-multiplied, adjoint
    gates of [c2] right-multiplied, so the intermediate diagram stays
    near the identity) and testing the result against the identity.
    [up_to_phase] defaults to [true].

    The schedule follows the diff of the two gate lists.  At each pair
    of {!common_subsequence} (computed after the relabeling below), the
    gate of [c1] is left-multiplied and then the adjoint of its partner
    in [c2] right-multiplied, so a gate both circuits share returns the
    product to where it was.  Between two consecutive pairs, the
    unmatched gates of both sides are interleaved in proportion to
    their counts in that segment.  With no pair, which includes an
    aligner past its work bound, that is the proportional interleaving
    of the whole circuits.

    Each side's unmatched gates are fused into blocks.  Consecutive
    gates of one side share a block while their combined support stays
    within two qubits; a Toffoli or MCT is a block of its own.  A block
    is built from the gate diagrams (left [L := g * L], right
    [R := R * g-dagger]) and multiplied into the product once: when
    the side's next gate would take it past two qubits, and at the end
    of the segment.  The two sides' factors commute, so a block waits
    while the other side's gates go in.  It cuts the peak node count
    of each full Table 8 proof by more than half.  Matched pairs are
    never fused.

    Every gate is applied exactly once, in order, on its own side, so
    the verdict does not depend on the alignment or the blocks; only
    the diagram sizes do.  Block diagrams live in the same manager, so
    they count toward the node budget.

    Both circuits are first relabeled by first-use order, so qubits
    that interact sit next to each other in the variable order;
    equivalence is invariant under a common relabeling, and clustered
    orders keep intermediate diagrams exponentially smaller on wide,
    locally-acting circuits (the 96-qubit benchmarks).

    [deadline_ns], when given, is a monotonic-clock instant (the scale
    of [Trace.now_ns]): once past, the check aborts with
    {!Deadline_exceeded} instead of running to completion.  The
    deadline is probed once per round of the aligner, before every gate
    multiplication and once per 1024 fresh node allocations, so even a
    single exploding multiply
    overruns by at most a fraction of a millisecond — this is what lets
    a compile's wall-clock budget bound the verification stage instead
    of merely being consulted before it starts.

    [stats], when given, receives the internal manager's {!stats} once
    the check finishes — including when it aborts on
    [Node_budget_exceeded] or [Deadline_exceeded], so traces can record
    how large the diagram grew before giving up.
    @raise Node_budget_exceeded when the optional budget is exceeded.
    @raise Deadline_exceeded when the optional deadline passes mid-check.
    @raise Invalid_argument when widths differ. *)
val equivalent :
  ?up_to_phase:bool ->
  ?node_budget:int ->
  ?deadline_ns:int64 ->
  ?stats:(stats -> unit) ->
  Circuit.t ->
  Circuit.t ->
  bool

(** [adjoint m e] is the conjugate transpose of the represented
    matrix. *)
val adjoint : manager -> edge -> edge

(** [trace m e] is the matrix trace, computed along the diagonal
    quadrants without expanding the matrix. *)
val trace : manager -> edge -> Mathkit.Cx.t

(** [process_fidelity c1 c2] is |tr(U1-dagger U2)| / 2^n: 1.0 exactly
    when the circuits agree up to global phase, smaller the further
    apart they are.  A quantitative companion to {!equivalent} for
    diagnosing mismatches.  The trace walk halves its sum once per
    level instead of dividing by 2^n, so any register width works.
    @raise Invalid_argument when widths differ. *)
val process_fidelity : Circuit.t -> Circuit.t -> float

(** [node_count e] is the number of distinct nodes reachable from [e]
    (terminal included). *)
val node_count : edge -> int

(** {2 Basis-state simulation}

    A state |psi> prepared from basis state |k> is represented by the
    rank-1 matrix [U |k><k|].  Rank-1 diagrams factor like vectors and
    stay compact, making basis-state runs of wide mapped circuits
    practical where the dense simulator stops at ~12 qubits — the
    96-qubit Table 8 outputs can be exercised functionally, not just
    equivalence-checked.

    Basis states are bit arrays (entry [q] = qubit [q]) rather than
    integers, so registers wider than an OCaml int work too. *)

(** [run_basis ?node_budget ?deadline_ns m c ~from] is
    [U |from><from|]: column [from] of the circuit unitary, everything
    else zero.  The budgets raise as in {!equivalent}. *)
val run_basis :
  ?node_budget:int -> ?deadline_ns:int64 -> manager -> Circuit.t ->
  from:bool array -> edge

(** [amplitude m state ~from bits] reads <bits|psi> from a state built
    by {!run_basis} with the same [from].  The bit arrays pick the
    branch at each level directly, so any register width works. *)
val amplitude : manager -> edge -> from:bool array -> bool array -> Mathkit.Cx.t

(** [classical_outcome m state ~from] is [Some bits] when the state is,
    up to global phase, exactly the basis state |bits> — the common
    case for compiled reversible circuits on basis inputs — and [None]
    for genuine superpositions.  Linear in the diagram depth. *)
val classical_outcome : manager -> edge -> from:bool array -> bool array option

(** [entry m e ~row ~col] reads one matrix entry by walking the
    diagram.  Bit [n - 1 - q] of [row] and [col] selects qubit [q]'s
    branch, so the indices only address registers narrower than an
    OCaml int; {!amplitude} takes bit arrays for wider ones. *)
val entry : manager -> edge -> row:int -> col:int -> Mathkit.Cx.t

(** [to_matrix m e] expands the diagram into a dense matrix; exponential,
    for tests and small demos only. *)
val to_matrix : manager -> edge -> Mathkit.Matrix.t

(** [to_dot m e] renders the diagram in Graphviz DOT, reproducing the
    style of the paper's Fig. 1 (edge order U00,U01,U10,U11). *)
val to_dot : manager -> edge -> string

(** [to_ascii m e] is a compact textual rendering: one line per node with
    its variable and four (weight, child) pairs. *)
val to_ascii : manager -> edge -> string
