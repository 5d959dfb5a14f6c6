(** Berkeley PLA format for classical switching functions — the input
    format of the compiler's classical front-end.

    {v
    .i 3
    .o 1
    .type esop      (optional; default fr = sum-of-products)
    101 1
    1-0 1
    .e
    v}

    Each cube row has one character per input ([0], [1], or [-]) and one
    per output ([0], [1], or [~]/[-], treated as 0). *)

(** [line] is 1-based.  Failures only detectable once the whole input
    has been read (a missing mandatory declaration) are reported on the
    last line of the input, never "line 0". *)
exception Parse_error of { line : int; message : string }

type literal = Zero | One | Dash

(** How the cube list combines: inclusive OR (classical SOP) or
    exclusive OR (ESOP). *)
type kind = Sop | Esop

type cube = { inputs : literal array; outputs : bool array }

type t = {
  n_inputs : int;
  n_outputs : int;
  kind : kind;
  cubes : cube list;
}

val of_string : string -> t
val to_string : t -> string

(** [eval pla ~output assignment] evaluates output column [output] on an
    input assignment given as bits (index 0 = first input column). *)
val eval : t -> output:int -> bool array -> bool

(** [truth_table pla ~output] lists the output for all 2^n assignments;
    entry [k]'s assignment has the {e first} input as most significant
    bit. *)
val truth_table : t -> output:int -> bool array
