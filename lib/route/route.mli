(** Connectivity-tree reroute (CTR) — Section 4, Figs. 4 and 5 of the
    paper.

    A CNOT whose qubits are not coupled on the device is realized by
    SWAPping the control along the shortest coupling-graph path until it
    sits next to the target, executing the CNOT there, and SWAPping back
    so every other gate keeps its original qubit assignment.  The search
    tree grows over the {e undirected} coupling graph because a
    direction-violating CNOT costs only four extra H gates (Fig. 6). *)

(** Raised when no SWAP path exists (disconnected coupling map). *)
exception Unroutable of string

(** Routing observability counters.  Allocate one with {!new_stats},
    pass it to a router, read the fields afterwards; routers called
    without one keep their exact pre-instrumentation behavior. *)
type stats = {
  mutable rerouted_cnots : int;
      (** CNOTs that needed a CTR SWAP chain (uncoupled operand pair) *)
  mutable reversed_cnots : int;
      (** CNOTs realized through the Fig. 6 four-H direction reversal *)
  mutable swaps_inserted : int;  (** SWAP gates emitted *)
  mutable swap_hops : int;  (** total CTR path hops over all reroutes *)
  mutable max_path_hops : int;  (** longest single CTR path, in hops *)
  mutable unrouted_cnots : int;
      (** CNOTs left as written because the [swap_budget] ran out; the
          output preserves the unitary but those gates are not
          device-legal (see the budget rule of
          {!route_circuit_swaps}) *)
}

val new_stats : unit -> stats

(** [ctr_path d ~control ~target] is the shortest chain
    [control; q1; ...; qm] such that consecutive entries are coupled and
    [qm] is coupled with [target].  When control and target are already
    coupled the chain is just [[control]] (no SWAPs needed).  Ties break
    toward lower qubit indices, making routes deterministic.
    @raise Unroutable when target is unreachable.
    @raise Invalid_argument when control = target or out of range. *)
val ctr_path : Device.t -> control:int -> target:int -> int list

(** [ctr_path_weighted d ~weight ~control ~target] generalizes
    {!ctr_path} to a Dijkstra search: [weight a b >= 0] prices the SWAP
    hop between coupled qubits [a] and [b] (e.g. a calibration-derived
    -log fidelity), and the final CNOT hop onto the target is priced
    too, so the route minimizes total cost rather than hop count.
    Same contract otherwise. *)
val ctr_path_weighted :
  Device.t ->
  weight:(int -> int -> float) ->
  control:int ->
  target:int ->
  int list

(** [route_circuit_swaps ?stats ?swap_budget ?weight d c] maps a
    technology-ready circuit (native library only) onto the device, the
    CTR router: one-qubit gates pass through, each CNOT is oriented
    (Fig. 6 reversal) or rerouted along {!ctr_path}, and the CTR SWAPs
    stay whole, as {!Gate.Swap} units on coupled pairs, so the optimizer
    can cancel a swap-back against the next swap-forward before
    {!expand_swaps}.  With [weight], paths come from
    {!ctr_path_weighted} instead.  The result is declared on the
    device's full register.

    {b Budget.}  [swap_budget], when given, caps the SWAP gates the
    router {e emits}: a reroute of [h] hops is charged [2 * h] up front
    ([h] SWAPs there and [h] back), so [stats.swaps_inserted] never
    exceeds the budget.  A reroute the budget cannot pay leaves its
    CNOT {e as written} — the unitary is preserved, the gate is not yet
    legal — and counts it in [stats.unrouted_cnots] (graceful
    degradation: the compiler marks the stage [Degraded] instead of
    aborting).  Direction-only reversals cost no SWAPs and always
    happen.  Without a budget every CNOT of the result is legal on
    [d].
    @raise Invalid_argument if [c] contains non-native gates or needs
    more qubits than the device has.
    @raise Unroutable as {!ctr_path}. *)
val route_circuit_swaps :
  ?stats:stats ->
  ?swap_budget:int ->
  ?weight:(int -> int -> float) ->
  Device.t ->
  Circuit.t ->
  Circuit.t

(** [expand_swaps d c] replaces each SWAP (which must join a coupled
    pair) with its CNOT realization, at most 7 gates (Fig. 3 + Fig. 6). *)
val expand_swaps : Device.t -> Circuit.t -> Circuit.t

(** [route_circuit d c] = [expand_swaps d (route_circuit_swaps d c)]:
    the CTR route with every gate native and every CNOT legal on [d].
    Same exceptions as {!route_circuit_swaps}. *)
val route_circuit : Device.t -> Circuit.t -> Circuit.t

(** [route_circuit_tracking d c] is a baseline router for comparison
    with CTR: instead of swapping the control back after every CNOT, it
    {e tracks} the logical-to-physical layout as SWAPs accumulate and
    only restores the original layout once, at the end of the circuit
    (by replaying the swap history in reverse).  Output is swap-level,
    with the preconditions, guarantees and budget rule of
    {!route_circuit_swaps}: each forward hop is replayed once by the
    restore, so it too emits [2 * h] SWAPs per reroute of [h] hops. *)
val route_circuit_tracking :
  ?stats:stats -> ?swap_budget:int -> Device.t -> Circuit.t -> Circuit.t
