(** Rewrite-template peephole engine.

    The rule passes of {!Optimize}'s single optimization loop, in the
    spirit of quilc's compressor and staq's rotation folding: a
    registry of named, individually toggleable rewrite templates, each
    one native pattern match on a contiguous gate sequence with its side
    condition as a [when] guard, and three engine-level passes templates
    alone cannot express — same-axis rotation merging, phase-polynomial
    merging across CNOT ladders, and Clifford normalization of one-qubit
    runs.

    Every rule preserves the circuit's unitary {e exactly} — not merely
    up to global phase — matching the optimizer's contract (rotation
    deletion therefore requires the folded angle to be a multiple of
    4 pi, since Rz(2 pi) = -I).  This module only rewrites: the cost
    guard on each pass, the fixpoint and the strict-mode equivalence
    check all live in {!Optimize.optimize_budgeted}. *)

(** {1 The rule registry} *)

type rule = {
  name : string;  (** unique registry key, e.g. ["h-x-h-to-z"] *)
  doc : string;
  pattern_doc : string;
      (** e.g. ["H a; X a; H a"]: a repeated letter is the same wire;
          [CZ] matches its operands in either order *)
  guard_doc : string;  (** ["-"] when unconditional *)
  replacement_doc : string;
  head : int;
      (** the {!Gate.kind} of the gate the pattern starts with:
          [rewrite] is [None] on every list whose first gate is of
          another kind, so {!apply_templates} tries at each position
          only the rules whose head is that gate's kind *)
  rewrite : device:Device.t option -> Gate.t list -> Gate.t list option;
      (** [rewrite ~device gates] is [Some (replacement @ rest)] when a
          prefix of [gates] matches the pattern and satisfies the side
          condition, [None] otherwise.  The side condition sees the
          device so direction-changing rules can refuse illegal CNOT
          orientations and SWAP-introducing rules can restrict
          themselves to unmapped circuits ([device = None]). *)
}

(** All registered templates, in match-priority order.  Every
    replacement is strictly shorter than its pattern, so template
    application terminates. *)
val rules : rule list

val find_rule : string -> rule option

(** Names of the three engine passes (["rotation-merge"],
    ["phase-merge"], ["clifford-normalize"]), toggleable exactly like
    template names. *)
val engine_pass_names : string list

(** Template names followed by {!engine_pass_names}. *)
val all_names : string list

(** {1 Rule selection} *)

(** A set of enabled rule/pass names, canonically ordered. *)
type selection

(** Every name in {!all_names}: the [all] and [default] tokens of
    {!parse_selection} both name this set. *)
val default_selection : selection

val empty_selection : selection
val enabled : selection -> string -> bool

(** [parse_selection s] reads a comma-separated rule list.  Tokens are
    processed left to right: [all], [none] and [default] reset the set,
    a bare name adds, [-name] removes.  The set starts from
    {!default_selection} when the first token is a removal (so
    ["-phase-merge"] means "everything but phase merging"), and empty
    otherwise (so ["rotation-merge"] means "only rotation merging").
    The empty string is {!default_selection}; unknown names are an
    [Error]. *)
val parse_selection : string -> (selection, string) result

(** Canonical rendering: comma-separated sorted enabled names, ["none"]
    when empty.  [parse_selection] of the result round-trips.  Stable,
    so it is safe to embed in {!Compiler.canonical_options} digests. *)
val selection_to_string : selection -> string

(** {1 Engine passes}

    Each returns the rewritten circuit and the number of gates it
    eliminated (0 means the circuit is returned unchanged). *)

(** Folds runs of same-axis Rx/Ry/Rz on one qubit into a single
    rotation, sliding pending rotations past every gate {!Gate.commutes}
    with them (an Rz past diagonal gates and CNOT controls, an Rx past X
    and CNOT targets, an Ry past Y).  The folded rotation is deleted
    only when its angle is a multiple of 4 pi (within 1e-12): Rz(2 pi) =
    -I, and the optimizer promises exactness.  A circuit with no Rx, Ry
    or Rz (every Clifford+T circuit) returns at once. *)
val merge_rotations : Circuit.t -> Circuit.t * int

(** Phase-polynomial merging in the spirit of staq: tracks each wire's
    affine parity (XOR of input variables plus a constant) through
    CNOT/X/SWAP, allocating a fresh variable whenever a non-affine gate
    (H, Y, Rx, Ry, Toffoli target, ...) writes a wire, and merges
    diagonal rotations applied to the same parity term — Rz with Rz
    (negating through a set constant bit), phase-family gates
    (Z/S/Sdg/T/Tdg/Phase) with each other via {!Gate.phase_gate}, which
    re-expresses the folded angle as the cheapest Clifford+T gate.
    This is the pass that reduces T-count across CNOT ladders.  A
    first walk stops at the first rotation that folds into an earlier
    one; when none does, [(c, 0)] comes back with no list built. *)
val merge_phase_polynomial : Circuit.t -> Circuit.t * int

(** Replaces runs of one-qubit Clifford gates (X/Y/Z/H/S/Sdg on one
    wire, other wires' gates interleaving freely) by the shortest word
    with the {e exact} same 2x2 matrix — global phase included — from a
    table of the Clifford group enumerated over that alphabet.  Runs
    are only replaced when the normal form is strictly shorter.

    The table numbers the group's {!clifford_elements} elements and
    holds, for each element and letter, the element the letter takes it
    to, so a run's product costs one lookup per gate; each wire keeps
    its open run's first and last gate, length and product, and the
    run's gates are linked by index.  A circuit with no run to replace
    comes back as [(c, 0)] with no gate list built. *)
val normalize_cliffords : Circuit.t -> Circuit.t * int

(** The order of the one-qubit Clifford group with its global phases
    (powers of e^(i pi/4)): 192.  The table behind
    {!normalize_cliffords} is built at module init by a breadth-first
    search from the identity over the letters H, S, Sdg, X, Y, Z in
    that order, with matrices keyed by exact integer codes of their
    entries (0, or a power of e^(i pi/4) times the matrix's one
    magnitude), so no float is rounded. *)
val clifford_elements : int

(** [clifford_word e] is the word (gates on qubit 0, in circuit order)
    by which that search first reached element [e], numbered in the
    order it met them (the identity is 0, with the empty word); [None]
    for the 6 elements whose shortest word has 7 letters, which the
    pass never emits.  The other 186 have a word of at most 6.
    @raise Invalid_argument unless [0 <= e < clifford_elements]. *)
val clifford_word : int -> Gate.t list option

(** [apply_templates ?device ?selection c] makes one left-to-right
    sweep of the enabled templates and counts applications per rule
    ([[]], with [c] itself, when nothing fired; no copy of the gate list
    is built before the first match). *)
val apply_templates :
  ?device:Device.t ->
  ?selection:selection ->
  Circuit.t ->
  Circuit.t * (string * int) list
