(** Exclusive-or sum-of-products representation of switching functions —
    the front-end intermediate form of the compiler (Section 2.3 of the
    paper, following Fazel-Thornton-Rice).

    A cube is a product of literals: [mask] selects the variables that
    appear, [value] their required polarities (bits outside [mask] are
    zero).  A function is the XOR of its cubes.  Within an assignment
    integer, input 0 is the most significant bit — the same convention
    as {!Qformats.Pla.truth_table} and {!Sim.truth_table}. *)

type cube = { mask : int; value : int }

type t = private { n_inputs : int; cubes : cube list }

(** [make ~n_inputs cubes] checks that every cube fits in [n_inputs]
    variables and that values stay within their masks. *)
val make : n_inputs:int -> cube list -> t

val cube_count : t -> int

(** [truth_table esop] tabulates all 2^n assignments. *)
val truth_table : t -> bool array

(** [of_minterms table] is the trivial ESOP with one full cube per
    one-entry of the truth table. *)
val of_minterms : bool array -> t

(** [pprm table] is the positive-polarity Reed-Muller form (algebraic
    normal form) computed with the butterfly Moebius transform: a
    canonical ESOP with positive literals only. *)
val pprm : bool array -> t

(** [minimize esop] applies cube-pair simplification rules to a fixed
    point: duplicate cubes cancel (C xor C = 0), same-support cubes
    differing in one polarity merge (xC xor x'C = C), and a cube
    absorbing a sub-cube flips a polarity (xC xor C = x'C).  Never
    increases the cube count, never changes the function. *)
val minimize : t -> t

(** [of_truth_table table] is the best ESOP this library produces: the
    cheaper of minimized-minterms and minimized-PPRM. *)
val of_truth_table : bool array -> t

(** [of_pla pla ~output] extracts one output column of a PLA: direct
    cube translation for [.type esop] files, truth-table conversion for
    SOP files (exponential in inputs; intended for front-end-sized
    functions). *)
val of_pla : Qformats.Pla.t -> output:int -> t

val to_string : t -> string
