(** ESOP-to-Toffoli-cascade generation — the Fazel-Thornton-Rice
    front-end [1] that embeds an irreversible switching function into a
    reversible circuit.

    The embedding keeps every input on its own wire (those wires emerge
    unchanged: they are the {e garbage} outputs) and adds one
    zero-initialized {e ancilla} wire per output; each ESOP cube becomes
    one generalized Toffoli targeting the output wire, with X gates
    temporarily inverting negatively-occurring inputs. *)

(** [of_truth_table table] realizes the function [table] tabulates
    ([2^n] entries for [n] inputs) as the cascade of
    {!Esop.of_truth_table}'s ESOP, on [n + 1] wires: input wire [i]
    carries input variable [i], and the output wire, index [n], must
    start at 0. *)
val of_truth_table : bool array -> Circuit.t

(** [of_pla pla] realizes every output of a multi-output PLA on
    [n_inputs + n_outputs] wires (output [j] on wire [n_inputs + j]). *)
val of_pla : Qformats.Pla.t -> Circuit.t

(** Reversible-embedding bookkeeping the paper asks synthesis tools to
    minimize (Section 2.3). *)
type embedding = {
  wires : int;  (** total register width *)
  ancilla : int;  (** zero-initialized added inputs *)
  garbage : int;  (** outputs that only replicate inputs *)
}

val embedding_of_pla : Qformats.Pla.t -> embedding
