(** Dense complex matrices.

    Used for gate transfer matrices and the reference simulator that
    cross-checks QMDD results.  Sizes in this project are always powers of
    two, but nothing here requires that except [kron]-built operators. *)

type t

(** [create rows cols] is the all-zero matrix. *)
val create : int -> int -> t

(** [identity n] is the n-by-n identity. *)
val identity : int -> t

(** [of_rows rows] builds a matrix from row lists.  All rows must have
    the same length.
    @raise Invalid_argument on ragged input or an empty matrix. *)
val of_rows : Cx.t list list -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit

val add : t -> t -> t

(** [mul a b] is the matrix product.
    @raise Invalid_argument on dimension mismatch. *)
val mul : t -> t -> t

(** [scale s m] multiplies every entry by the complex scalar [s]. *)
val scale : Cx.t -> t -> t

(** [kron a b] is the Kronecker (tensor) product with [a] on the
    high-order side, matching the qubit-0-is-most-significant convention
    used throughout the project. *)
val kron : t -> t -> t

(** [dagger m] is the conjugate transpose. *)
val dagger : t -> t

(** [approx_equal ?eps a b] compares entrywise within [eps]; [false] when
    shapes differ. *)
val approx_equal : ?eps:float -> t -> t -> bool

(** [equal_up_to_global_phase ?eps a b] holds when [a = exp(i phi) b] for
    some phase [phi].  Compilers may legally change global phase. *)
val equal_up_to_global_phase : ?eps:float -> t -> t -> bool

(** [is_unitary ?eps m] checks m . m-dagger = identity. *)
val is_unitary : ?eps:float -> t -> bool

(** [is_identity ?eps m] checks m = identity. *)
val is_identity : ?eps:float -> t -> bool

val to_string : t -> string
