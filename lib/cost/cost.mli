(** Quantum cost functions.

    The paper's Eqn. 2 drives every optimization decision:

    {v q_cost = 0.5 * t + 0.25 * c + a v}

    where [t] counts T and T-dagger gates, [c] counts CNOTs, and [a] is
    the total gate count.  Each technology cell library may carry its
    own weights (Sec. 4), and the paper also weighs calibration-based
    fidelity (Sec. 2.2).  A cost is therefore data, not a function:
    either the three weights of Eqn. 2's linear family or a device
    calibration.  Being data, it renders exactly ({!to_string}), so a
    compile's cost is part of its cache key. *)

type t =
  | Linear of { t : float; cnot : float; gate : float }
      (** [t * T-count + cnot * CNOT-count + gate * gate-volume] *)
  | Log_fidelity of Calibration.t
      (** [-sum log (1 - error(g))] over the gates, with each gate's
          error from {!Calibration.gate_error}: non-negative, additive
          per gate, and minimizing it maximizes
          {!Calibration.success_probability}.  Defined on circuits the
          calibrated device can execute, so it only applies after
          mapping. *)

(** Eqn. 2 of the paper: weights 0.5 / 0.25 / 1. *)
val eqn2 : t

(** Plain gate count: every gate weighs 1.  The simplest objective for
    the {!Rewrite} tier ([qsc optimize --objective gate-volume]). *)
val gate_volume : t

(** T-dominated weights (10t + c + a) for fault-tolerant targets where
    T gates dwarf everything else; drives the optimizer toward the
    phase-polynomial T-count reductions. *)
val t_weighted : t

(** [evaluate c circuit] is the quantum cost of [circuit].
    @raise Invalid_argument for a [Log_fidelity] cost and a gate its
    device cannot execute (see {!Calibration.gate_error}). *)
val evaluate : t -> Circuit.t -> float

(** [to_string c] renders [c] exactly: the weights of a [Linear] cost
    in [%.17g] ([linear:t=0.5,cnot=0.25,gate=1] for {!eqn2}), and a
    calibration by its {!Calibration.digest}
    ([log-fidelity:<hex digest>]).  Two costs render alike exactly when
    they are equal, so the rendering can key a compile cache. *)
val to_string : t -> string

(** [percent_decrease ~before ~after] is the paper's improvement metric,
    [100 * (before - after) / before]; zero when [before] is zero. *)
val percent_decrease : before:float -> after:float -> float
