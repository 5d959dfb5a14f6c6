(** RevLib [.real] reversible-circuit format — the format of the paper's
    second benchmark set (Toffoli cascades from revlib.org).

    Accepted subset:

    {v
    # comment
    .version 2.0
    .numvars 3
    .variables a b c
    .inputs / .outputs / .constants / .garbage   (recorded or ignored)
    .begin
    t1 a          NOT
    t2 a b        CNOT (last operand is the target)
    t3 a b c      Toffoli
    t5 a b c d e  generalized Toffoli
    f2 a b        SWAP
    f3 a b c      Fredkin (controlled SWAP; expanded to CNOT+Toffoli)
    .end
    v}

    Controlled-SWAP gates [fN] with N > 2 are expanded at parse time
    into the equivalent CNOT / generalized-Toffoli sandwich, since the
    compiler's gate set has no Fredkin primitive. *)

(** [line] is 1-based.  Failures only detectable once the whole input
    has been read (a missing mandatory declaration) are reported on the
    last line of the input, never "line 0". *)
exception Parse_error of { line : int; message : string }

type t = {
  circuit : Circuit.t;
  names : string array;  (** variable names in declaration order *)
  constants : string option;  (** raw [.constants] line payload, if any *)
  garbage : string option;  (** raw [.garbage] line payload, if any *)
}

val of_string : string -> t

(** [to_string c] renders a {e reversible} circuit (NOT / CNOT / Toffoli
    / MCT / SWAP gates only).
    @raise Invalid_argument on non-classical gates. *)
val to_string : Circuit.t -> string
