(** Differential fuzzing and metamorphic property testing for the whole
    synthesis pipeline.

    The paper's central guarantee is that every compiled,
    technology-mapped circuit is provably equivalent to its
    technology-independent source (Section 5); this module manufactures
    the inputs that try to break that guarantee.  It is a
    dependency-free QuickCheck-style engine: seeded, size-parameterized
    {!Gen}erators for random circuits (full gate set, rotation edge
    angles, widths 1-8), random connected devices (chains, rings, stars,
    random spanning-tree-plus-edges) and random switching functions; a
    library of metamorphic and differential {!Property.t}s that pit the
    compiler against its two independent oracles (the dense {!Sim}
    matrix and the {!Qmdd} canonical form); a greedy {!shrink}er that
    reduces any failing case to a minimal counterexample; and a
    {!run}ner whose failures carry the exact replay seed.

    Everything is driven by [Random.State]: the same seed replays the
    same cases, the same faults, the same shrink — no global state, no
    external library, usable from both the test suite and the
    [qsc fuzz] subcommand. *)

(** {2 Generators} *)

module Gen : sig
  (** A generator draws a value from a [Random.State]; composition is
      ordinary function application, and determinism is inherited from
      the state. *)
  type 'a t = Random.State.t -> 'a

  (** [run ~seed g] draws one value from a fresh state. *)
  val run : seed:int -> 'a t -> 'a

  (** [int bound] draws uniformly from [0 .. bound-1] ([bound >= 1]). *)
  val int : int -> int t

  (** [choose xs] draws one element uniformly.
      @raise Invalid_argument on []. *)
  val choose : 'a list -> 'a t

  (** Rotation angles: a deliberate mix of edge values where
      canonicalization, fusion and emission change behavior — exactly
      0, [pi], [-pi], [2pi] (folds to 0), [pi/2], [pi/4], values within
      1e-13 of 0 and of the [(-pi, pi]] fold boundary (the snap
      threshold of {!Gate.canonical_angle}), a huge-but-finite
      magnitude — and uniform draws from [(-2pi, 2pi)].  Always
      finite: non-finite angles are manufactured by {!Faultinject},
      not by generators, so every generated circuit has a defined
      unitary. *)
  val angle : float t

  (** The deliberate edge-angle list {!angle} draws from half the time:
      0, [±pi], [±2pi], [pi/2], [±pi/4], values within 1e-13 of 0 and
      of the fold boundary, and 1e6.  Exposed so metamorphic tests over
      rotation folding (e.g. [Rz(a); Rz(b) = Rz(a+b)]) can enumerate
      every boundary pair instead of waiting for the generator to find
      them. *)
  val edge_angles : float list

  (** [gate ~n] draws from the full gate set that fits an [n]-qubit
      register: all one-qubit gates at any width, CNOT/CZ/SWAP from 2
      qubits, Toffoli from 3, and an occasional 3-control generalized
      Toffoli from 5 (leaving a borrowable work qubit for Barenco
      lowering). *)
  val gate : n:int -> Gate.t t

  (** [circuit ?gate ~max_qubits ~max_gates] draws a width
      [1 .. max_qubits] and a gate count [0 .. max_gates], then fills
      the register with [gate] (default {!gate}).  The empty circuit
      and the 1-qubit register are generated on purpose — both are
      documented edge cases of the IR. *)
  val circuit :
    ?gate:(n:int -> Gate.t t) -> max_qubits:int -> max_gates:int -> Circuit.t t

  (** [device ~max_qubits] draws a {e connected} device of
      [2 .. max_qubits] qubits: a chain, a ring, a star, or a random
      spanning tree plus a few extra couplings, each edge in a random
      direction (sometimes both).  Connectivity is guaranteed, so
      routing is always possible. *)
  val device : max_qubits:int -> Device.t t

  (** [truth_table ~max_inputs] draws a random single-output switching
      function over [1 .. max_inputs] variables as its 2^n-entry truth
      table. *)
  val truth_table : max_inputs:int -> bool array t

  (** [pla ~max_inputs] draws a random PLA: 1-2 outputs, random cube
      rows, randomly SOP or ESOP kind. *)
  val pla : max_inputs:int -> Qformats.Pla.t t
end

(** {2 Cases} *)

(** Everything a property needs to run, self-contained so a failing
    case can be rendered to a repro file and replayed byte-for-byte. *)
type case =
  | Circuit_case of {
      circuit : Circuit.t;
      device : Device.t option;
      budget : int option;  (** routing SWAP budget, when the property
                                exercises graceful degradation *)
    }
  | Optimize_case of {
      circuit : Circuit.t;
      device : Device.t option;
          (** route [circuit] on it and optimize with [~device] *)
      cost : Cost.t;
      rules : Rewrite.selection;
    }  (** an optimizer run: what it runs on and under which objective *)
  | Function_case of { pla : Qformats.Pla.t }
  | Source_case of { ext : string; text : string }
      (** raw front-end input text (possibly byte-mutated) with the
          extension that selects its parser *)
  | Fault_case of {
      circuit : Circuit.t;
      fault : (Faultinject.spec * int) option;
          (** the fault injected into the compile, with its harness
              seed *)
    }  (** a compile to the property's device, perhaps with a fault *)
  | Options_case of {
      circuit : Circuit.t;
      device : Device.t;
      draw : int array;
          (** one choice index per options field (see
              compile-options-total); the options are rebuilt from it
              on [device], whose synthetic calibration any fidelity
              cost or weighted router uses *)
    }  (** a compile of [circuit] under drawn options *)

val case_to_string : case -> string

(** {2 Properties} *)

(** Generation size limits, threaded into every property's generator. *)
type config = { max_qubits : int; max_gates : int }

(** 8 qubits, 16 gates — wide enough to reach every device model the
    properties use, small enough for the dense oracle. *)
val default_config : config

module Property : sig
  type outcome = Pass | Fail of string

  type t = {
    name : string;  (** stable kebab-case identifier ([--property]) *)
    doc : string;  (** one-line description for tables *)
    paper : string;  (** the paper section the property guards *)
    gen : config -> case Gen.t;
    check : case -> outcome;
        (** total: every exception is an engine bug, and the runner
            converts any that escape into [Fail] *)
  }

  (** The full property library, the order [qsc fuzz] runs them in:
      compile-sim-equivalent, compile-qmdd-equivalent,
      optimize-preserves-unitary, route-legal,
      route-budget-accounting, qasm-roundtrip, qc-roundtrip,
      place-invariance, esop-cascade, compile-checked-total,
      absint-sound, serve-protocol ([.serve] source cases: one
      qsynth-serve/v1 frame per line, driven through the in-process
      protocol core and a loopback socket with concurrent clients),
      serve-chaos ([.chaos] source cases: one
      {!Faultinject.Socket.event} per line, replayed as raw-socket
      transport faults — torn frames, disconnects, stalls, connection
      bursts — against a live loopback daemon with mid-pipeline
      injection, asserting valid envelopes and post-chaos
      liveness), rewrite-sound, staged-proof-sound,
      compile-options-total. *)
  val all : t list

  (** [find name] looks a property up by {!t.name}. *)
  val find : string -> t option
end

(** {2 Shrinking} *)

(** [shrink ~check case] greedily minimizes a failing case: drop gate
    chunks (halving sweeps down to single gates), zero rotation angles,
    compact the register to the qubits actually used, drop device
    couplings that keep the graph connected, narrow the device to the
    circuit's width, drop PLA cubes, drop source lines.  Every kept
    reduction still [Fail]s under [check]; the result is the smallest
    case reached plus the number of reductions applied.  Bounded by
    4000 check evaluations. *)
val shrink : check:(case -> Property.outcome) -> case -> case * int

(** {2 Running} *)

type failure = {
  property : string;
  seed : int;
      (** the exact per-case seed:
          [qsc fuzz --property NAME --seed SEED --count 1] replays it *)
  case : case;  (** as generated *)
  shrunk : case;  (** after {!shrink} *)
  message : string;  (** the [Fail] payload of the shrunk case *)
  shrink_steps : int;
}

type summary = {
  property : string;
  cases : int;  (** cases actually run (deadline may stop early) *)
  failures : failure list;
  elapsed : float;  (** wall-clock seconds *)
}

(** The base seed and the cases per property of a {!run} given
    neither: 0 and 100. *)
val default_seed : int

val default_count : int

(** [run ?config ?seed ?count ?time_budget ?jobs ?log props] fuzzes
    each property with [count] cases.  Case [i] of a property draws
    from a state seeded with [seed + i * golden] (so the reported
    per-case seed replays with [--count 1]).  [config], [seed] and
    [count] default to {!default_config}, {!default_seed} and
    {!default_count}.  [time_budget], when given, is a wall-clock cap in seconds
    over the whole run: checked between cases, a run out of time
    reports the cases finished so far.  [log] receives one progress
    line per property.

    [jobs] (default 1) fans a property's cases across that many OCaml
    domains.  Because every case's RNG comes from (run seed, case
    index) alone and a failing block is resolved in index order —
    lowest failing index wins, shrinking runs only on the winner — a
    failure's replay seed, shrunk case and message are identical at
    every [jobs] value.  Only the stop point of a [time_budget] run may
    differ (the budget is checked between blocks of cases, not between
    single cases). *)
val run :
  ?config:config ->
  ?seed:int ->
  ?count:int ->
  ?time_budget:float ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  Property.t list ->
  summary list

(** [failed summaries] holds when any property failed. *)
val failed : summary list -> bool

(** {2 Repro files}

    A failing case is persisted under [test/corpus/fuzz/] as a
    self-contained text file: property name, replay seed, failure
    message, and the shrunk case payload.  Replaying the corpus in the
    fixed-seed test suite makes every fuzz-found bug a permanent
    regression test. *)

(** [repro_to_string f] renders the repro file
    ([qsynth-fuzz-repro/v1]). *)
val repro_to_string : failure -> string

(** [repro_of_string s] parses a repro file back into the property
    name, the replay seed, and the shrunk case.  An optimize case's
    [cost:] header reads back when it renders a linear cost (the only
    kind the properties draw); a calibration renders as a digest. *)
val repro_of_string : string -> (string * int * case, string) result

(** [replay ~property case] runs the named property's check on a
    stored case: [Ok outcome], or [Error] for an unknown property. *)
val replay : property:string -> case -> (Property.outcome, string) result

val failure_to_string : failure -> string
