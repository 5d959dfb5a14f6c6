(** Complex-number helpers shared by the simulator, gate matrices, and
    QMDD edge weights.

    All equality in this library is approximate: quantum gate matrices
    built from H and T accumulate floating-point error, so comparisons go
    through a tolerance, 1e-9 unless the caller passes [eps].  The
    canonical rounding used by the QMDD unique table also lives here so
    that every consumer agrees on what "the same weight" means. *)

type t = Complex.t

val zero : t
val one : t
val i : t

(** [of_float r] is the real number [r] as a complex value. *)
val of_float : float -> t

(** [make re im] builds a complex number from parts. *)
val make : float -> float -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val conj : t -> t
val norm : t -> float

(** [scale s z] multiplies [z] by the real scalar [s]. *)
val scale : float -> t -> t

(** One over the square root of two; the Hadamard amplitude. *)
val inv_sqrt2 : float

(** [omega k] is exp(i k pi / 4), the primitive eighth root of unity to
    the k-th power.  [omega 1] is the T-gate phase. *)
val omega : int -> t

(** [approx_equal ?eps a b] holds when both parts differ by at most
    [eps]. *)
val approx_equal : ?eps:float -> t -> t -> bool

(** [is_zero ?eps z] holds when [z] is within [eps] of zero. *)
val is_zero : ?eps:float -> t -> bool

(** [is_one ?eps z] holds when [z] is within [eps] of one. *)
val is_one : ?eps:float -> t -> bool

(** [round_key z] rounds both parts to the 1e-10 grid and returns them.
    This grid defines when the QMDD unique table treats two edge
    weights as the same: weights that round to one grid point share a
    node. *)
val round_key : t -> float * float

(** [to_string z] renders [z] compactly, e.g. ["0.7071+0.7071i"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
