(** OpenQASM 2.0 subset — the compiler's output language (the paper's
    final technology-dependent artifact) and an accepted input format.

    Supported statements: the header ([OPENQASM 2.0], [include],
    [qreg], [creg]), the gate set
    [x y z h s sdg t tdg rx ry rz u1 p u2 u3 cx cz swap ccx],
    [barrier] and [measure] (both ignored on input), and [//] comments.

    Interop details accepted on input:
    - multiple [qreg] declarations; registers are laid out in
      declaration order onto one global index space;
    - angle arguments may be arithmetic expressions over numbers and
      [pi] with [+ - * /] and parentheses, e.g. [rz(3*pi/4) q[0]]
      (the dialect Qiskit emits);
    - [u1]/[p] parse to the Phase gate; [u2(phi,lambda)] and
      [u3(theta,phi,lambda)] parse to their Rz/Ry decompositions (equal
      up to global phase to the IBM definitions).

    Generalized Toffoli gates have no OpenQASM 2.0 primitive; printing a
    circuit containing one raises — lower it first. *)

(** [line] is 1-based.  Failures only detectable once the whole input
    has been read (a missing mandatory declaration) are reported on the
    last line of the input, never "line 0". *)
exception Parse_error of { line : int; message : string }

(** [to_string c] renders the circuit as an OpenQASM 2.0 program with
    one quantum register [q].
    @raise Invalid_argument on generalized Toffoli gates. *)
val to_string : Circuit.t -> string

(** [of_string s] parses a program produced by {!to_string} (or written
    by hand in the same subset).  The circuit width is the declared
    [qreg] size.
    @raise Parse_error on malformed input. *)
val of_string : string -> Circuit.t
