(** Quantum device models: coupling maps and the coupling-complexity
    metric of the paper (Section 3).

    A device is a register size plus a {e directed} coupling map: the set
    of (control, target) pairs on which a native CNOT can execute.  All
    IBM Q maps of Table 2 ship with the library, along with the 96-qubit
    ibmqx5-inspired machine of Fig. 7, and custom maps can be parsed from
    the dictionary notation the paper uses
    ([{0:[1,2], 1:[2], 3:[2,4], 4:[2]}]). *)

type t

(** [make ~name ~n_qubits couplings] builds a device from directed
    (control, target) pairs.
    @raise Invalid_argument on out-of-range qubits, self-couplings, or
    duplicate pairs. *)
val make : name:string -> n_qubits:int -> (int * int) list -> t

val name : t -> string
val n_qubits : t -> int

(** [couplings d] is the directed coupling list, sorted. *)
val couplings : t -> (int * int) list

(** [allows_cnot d ~control ~target] holds when a native CNOT exists in
    that direction. *)
val allows_cnot : t -> control:int -> target:int -> bool

(** [coupled d a b] holds when a CNOT exists in either direction; this is
    the adjacency CTR searches, since a reversed CNOT costs only 4 H
    gates (paper Fig. 6). *)
val coupled : t -> int -> int -> bool

(** [neighbors d q] is the sorted list of qubits coupled (either
    direction) with [q]. *)
val neighbors : t -> int -> int list

(** [coupling_complexity d] is the paper's metric: available couplings
    divided by the n*(n-1) two-qubit permutations.  The simulator (full
    connectivity) scores 1. *)
val coupling_complexity : t -> float

(** [is_connected d] holds when the undirected coupling graph has a
    single component covering all qubits; routing between any pair is
    then possible. *)
val is_connected : t -> bool

(** [simulator ~n_qubits] is the fully-connected simulator device (no
    coupling restrictions; complexity 1). *)
val simulator : n_qubits:int -> t

(** [is_simulator d] holds when [d] imposes no coupling restriction. *)
val is_simulator : t -> bool

(** [of_dict_string ~name ~n_qubits s] parses the paper's dictionary
    notation, e.g. ["{0:[1,2], 1:[2], 3:[2,4], 4:[2]}"].
    @raise Invalid_argument on malformed input. *)
val of_dict_string : name:string -> n_qubits:int -> string -> t

(** [to_dict_string d] renders the coupling map back into dictionary
    notation. *)
val to_dict_string : t -> string

(** The IBM Q devices of Table 2 and the experimental 96-qubit machine. *)
module Ibm : sig
  val ibmqx2 : t
  (** 5 qubits, complexity 0.3 (Yorktown). *)

  val ibmqx3 : t
  (** 16 qubits, complexity 0.0833... (retired). *)

  val ibmqx4 : t
  (** 5 qubits, complexity 0.3 (Tenerife). *)

  val ibmqx5 : t
  (** 16 qubits, complexity 0.09166... (Rueschlikon, retired). *)

  val ibmq_16 : t
  (** 14 qubits, complexity 0.098901... (Melbourne). *)

  val big96 : t
  (** The proposed 96-qubit machine of Fig. 7: six 16-qubit
      ibmqx5-style rows stitched into a grid.  The exact edge set of the
      figure is not recoverable from the paper; this layout preserves
      its structure (ladder rows, sparse inter-row links, unidirectional
      CNOTs) — see DESIGN.md. *)

  val tokyo20 : t
  (** The 20-qubit commercial machine Section 3 mentions ("IBM also has
      a 20 qubit machine available for commercial use").  Its coupling
      map was never published in the paper; this is the well-known
      4x5-grid-with-diagonals Tokyo layout, bidirectional. *)

  val all : t list
  (** The five public devices of Table 2, in release order. *)
end

(** [ion_trap ~n_qubits] models a trapped-ion machine (one of the
    paper's future-work targets): every qubit pair couples in both
    directions, so routing never inserts SWAPs, but the map is explicit
    (unlike {!simulator}, this is a real device model with couplings
    listed and complexity 1). *)
val ion_trap : n_qubits:int -> t

(** [registry ()] is every built-in device including [big96], keyed by
    name. *)
val registry : unit -> (string * t) list

(** [find name] looks a built-in device up by name.
    @raise Not_found when unknown. *)
val find : string -> t
