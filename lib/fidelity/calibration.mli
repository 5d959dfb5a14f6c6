(** Device calibration data: per-qubit and per-coupling gate error
    rates, the data behind the fidelity-derived costs the paper
    mentions experimenting with (Section 2.2: "other metrics, such as
    qubit and operator fidelity, rather than decoherence times within
    our cost evaluations").  The cost itself is
    [Cost.Log_fidelity cal]; the weighted router prices SWAPs with
    {!swap_hop_weight}.

    Real IBM calibration snapshots from 2018 are no longer retrievable,
    so {!synthetic} generates deterministic plausible values in the
    ranges the paper's references report (single-qubit error around
    10^-3, CNOT error around 10^-2, readout around a few 10^-2); exact
    numbers can be supplied with {!of_values}. *)

type t

(** [synthetic ?seed device] derives a reproducible calibration for the
    device: same seed, same numbers. *)
val synthetic : ?seed:int -> Device.t -> t

(** [of_values device ~single ~readout ~cnot] installs explicit error
    rates; unlisted qubits/couplings keep synthetic defaults.
    @raise Invalid_argument for qubits or couplings not on the device,
    or rates outside [0, 1). *)
val of_values :
  Device.t ->
  single:(int * float) list ->
  readout:(int * float) list ->
  cnot:((int * int) * float) list ->
  t

(** [device cal] is the device [cal] rates: the one it was made for. *)
val device : t -> Device.t

(** [single_qubit_error cal q] is the depolarizing error rate of a
    one-qubit gate on qubit [q]. *)
val single_qubit_error : t -> int -> float

(** [readout_error cal q] is the measurement error rate of qubit [q]. *)
val readout_error : t -> int -> float

(** [cnot_error cal ~control ~target] is the error rate of the native
    CNOT on that directed coupling.
    @raise Invalid_argument when the coupling does not exist. *)
val cnot_error : t -> control:int -> target:int -> float

(** [gate_error cal g] is the error of one gate: the qubit's one-qubit
    rate, the coupling's CNOT rate, or — for a SWAP between coupled
    qubits — the compound error of its 3-CNOT realization.
    @raise Invalid_argument for gates the device cannot execute. *)
val gate_error : t -> Gate.t -> float

(** [success_probability cal c] estimates the probability that the
    whole circuit runs without a gate error: the product of (1 - error)
    over all gates.  Readout is not included (no measurement in the
    IR). *)
val success_probability : t -> Circuit.t -> float

(** [swap_hop_weight cal a b] prices a SWAP between the coupled qubits
    [a] and [b] as [-log(1 - swap error)].  As the [~weight] of
    [Route.route_circuit_swaps] (the compiler's [Weighted_ctr] router)
    it makes CTR prefer reliable couplings over merely short paths. *)
val swap_hop_weight : t -> int -> int -> float

(** [digest cal] is a hex MD5 of a canonical, sorted rendering of the
    device and every error rate: equal calibrations always share a
    digest, so it can key a compile cache. *)
val digest : t -> string

