exception Parse_error of { line : int; message : string }

let gate_to_qasm g =
  let q i = Printf.sprintf "q[%d]" i in
  match g with
  | Gate.X a -> Printf.sprintf "x %s;" (q a)
  | Gate.Y a -> Printf.sprintf "y %s;" (q a)
  | Gate.Z a -> Printf.sprintf "z %s;" (q a)
  | Gate.H a -> Printf.sprintf "h %s;" (q a)
  | Gate.S a -> Printf.sprintf "s %s;" (q a)
  | Gate.Sdg a -> Printf.sprintf "sdg %s;" (q a)
  | Gate.T a -> Printf.sprintf "t %s;" (q a)
  | Gate.Tdg a -> Printf.sprintf "tdg %s;" (q a)
  | Gate.Rx (theta, a) -> Printf.sprintf "rx(%.17g) %s;" theta (q a)
  | Gate.Ry (theta, a) -> Printf.sprintf "ry(%.17g) %s;" theta (q a)
  | Gate.Rz (theta, a) -> Printf.sprintf "rz(%.17g) %s;" theta (q a)
  | Gate.Phase (theta, a) -> Printf.sprintf "u1(%.17g) %s;" theta (q a)
  | Gate.Cnot { control; target } ->
    Printf.sprintf "cx %s,%s;" (q control) (q target)
  | Gate.Cz (a, b) -> Printf.sprintf "cz %s,%s;" (q a) (q b)
  | Gate.Swap (a, b) -> Printf.sprintf "swap %s,%s;" (q a) (q b)
  | Gate.Toffoli { c1; c2; target } ->
    Printf.sprintf "ccx %s,%s,%s;" (q c1) (q c2) (q target)
  | Gate.Mct _ ->
    invalid_arg
      "Qasm.to_string: OpenQASM 2.0 has no generalized Toffoli; lower it first"

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" (Circuit.n_qubits c));
  Circuit.iter
    (fun g ->
      Buffer.add_string buf (gate_to_qasm g);
      Buffer.add_char buf '\n')
    c;
  Buffer.contents buf

let strip_comment line =
  match String.index_opt line '/' with
  | Some i when i + 1 < String.length line && line.[i + 1] = '/' ->
    String.sub line 0 i
  | Some _ | None -> line

(* Split "cx q[0],q[1]" into the mnemonic and operand indices. *)
let parse_operand ~line_no s =
  let s = String.trim s in
  let fail message = raise (Parse_error { line = line_no; message }) in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some lb, Some rb when rb > lb + 1 -> (
    let name = String.trim (String.sub s 0 lb) in
    let idx = String.sub s (lb + 1) (rb - lb - 1) in
    match int_of_string_opt idx with
    | Some i when name <> "" -> (name, i)
    | Some _ | None -> fail (Printf.sprintf "bad operand %S" s))
  | _ -> fail (Printf.sprintf "bad operand %S" s)

(* Angle expressions: numbers and [pi] combined with + - * / and
   parentheses — the dialect Qiskit emits, e.g. [3*pi/4]. *)
let parse_angle ~line_no s =
  let fail message = raise (Parse_error { line = line_no; message }) in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_spaces () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let rec expr () =
    let left = ref (term ()) in
    let rec loop () =
      skip_spaces ();
      match peek () with
      | Some '+' ->
        incr pos;
        left := !left +. term ();
        loop ()
      | Some '-' ->
        incr pos;
        left := !left -. term ();
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    !left
  and term () =
    let left = ref (factor ()) in
    let rec loop () =
      skip_spaces ();
      match peek () with
      | Some '*' ->
        incr pos;
        left := !left *. factor ();
        loop ()
      | Some '/' ->
        incr pos;
        let d = factor () in
        if d = 0.0 then fail "division by zero in angle";
        left := !left /. d;
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    !left
  and factor () =
    skip_spaces ();
    match peek () with
    | Some '-' ->
      incr pos;
      -.factor ()
    | Some '(' ->
      incr pos;
      let v = expr () in
      skip_spaces ();
      (match peek () with
      | Some ')' -> incr pos
      | Some _ | None -> fail "expected ')' in angle expression");
      v
    | Some c when (c >= '0' && c <= '9') || c = '.' ->
      let start_pos = !pos in
      while
        !pos < n
        && ((s.[!pos] >= '0' && s.[!pos] <= '9')
           || s.[!pos] = '.' || s.[!pos] = 'e' || s.[!pos] = 'E'
           || ((s.[!pos] = '+' || s.[!pos] = '-')
              && !pos > start_pos
              && (s.[!pos - 1] = 'e' || s.[!pos - 1] = 'E')))
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start_pos (!pos - start_pos)) with
      | Some v -> v
      | None -> fail (Printf.sprintf "bad number in angle %S" s))
    | Some 'p' | Some 'P' ->
      if !pos + 1 < n && (s.[!pos + 1] = 'i' || s.[!pos + 1] = 'I') then begin
        pos := !pos + 2;
        4.0 *. atan 1.0
      end
      else fail (Printf.sprintf "bad token in angle %S" s)
    | Some c -> fail (Printf.sprintf "bad character %C in angle %S" c s)
    | None -> fail (Printf.sprintf "empty angle expression in %S" s)
  in
  let v = expr () in
  skip_spaces ();
  if !pos <> n then fail (Printf.sprintf "trailing junk in angle %S" s);
  v

(* Split a statement into mnemonic, parenthesized argument text (if
   any), and the operand text — tolerating spaces inside the
   parentheses, as in [u3(pi/2, 0, pi) q[0]]. *)
let split_statement ~line_no line =
  let fail message = raise (Parse_error { line = line_no; message }) in
  match String.index_opt line '(' with
  | Some lp
    when (match String.index_opt line ' ' with
         | Some sp -> lp < sp
         | None -> true) -> (
    (* Find the parenthesis matching the one at [lp]. *)
    let matching =
      let depth = ref 0 and found = ref None in
      String.iteri
        (fun i ch ->
          if !found = None then
            match ch with
            | '(' -> incr depth
            | ')' ->
              decr depth;
              if !depth = 0 && i > lp then found := Some i
            | _ -> ())
        line;
      !found
    in
    match matching with
    | Some rp ->
      ( String.trim (String.sub line 0 lp),
        Some (String.sub line (lp + 1) (rp - lp - 1)),
        String.trim (String.sub line (rp + 1) (String.length line - rp - 1)) )
    | None -> fail "unbalanced parentheses")
  | Some _ | None -> (
    match String.index_opt line ' ' with
    | None -> (line, None, "")
    | Some sp ->
      ( String.sub line 0 sp,
        None,
        String.trim (String.sub line sp (String.length line - sp)) ))

let of_string source =
  let lines = String.split_on_char '\n' source in
  (* Registers in declaration order share one global index space. *)
  let registers = Hashtbl.create 4 in
  let next_base = ref 0 in
  let gates = ref [] in
  let fail line_no message = raise (Parse_error { line = line_no; message }) in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      (* Statements end in ';'; one statement per line in our subset. *)
      let line = String.trim (strip_comment raw) in
      let line =
        if String.length line > 0 && line.[String.length line - 1] = ';' then
          String.trim (String.sub line 0 (String.length line - 1))
        else line
      in
      if line = "" then ()
      else
        let mnemonic, args, rest = split_statement ~line_no line in
        let angles () =
          match args with
          | None -> fail line_no (mnemonic ^ " needs angle argument(s)")
          | Some text ->
            String.split_on_char ',' text
            |> List.map (fun a -> parse_angle ~line_no (String.trim a))
        in
        let one_angle () =
          match angles () with
          | [ v ] -> v
          | _ -> fail line_no (mnemonic ^ " takes one angle")
        in
        let resolve (name, i) =
          match Hashtbl.find_opt registers name with
          | Some (base, size) ->
            if i < 0 || i >= size then
              fail line_no (Printf.sprintf "index %d outside qreg %s[%d]" i name size)
            else base + i
          | None -> fail line_no (Printf.sprintf "unknown register %S" name)
        in
        let operands () =
          String.split_on_char ',' rest
          |> List.map (fun s -> resolve (parse_operand ~line_no s))
        in
        let push g = gates := g :: !gates in
        match String.lowercase_ascii mnemonic with
        | "openqasm" | "include" | "creg" | "barrier" -> ()
        | "measure" -> ()
        | "qreg" ->
          let name, size = parse_operand ~line_no rest in
          if Hashtbl.mem registers name then
            fail line_no (Printf.sprintf "duplicate qreg %S" name);
          if size <= 0 then fail line_no "empty qreg";
          Hashtbl.add registers name (!next_base, size);
          next_base := !next_base + size
        | "x" -> (
          match operands () with
          | [ a ] -> push (Gate.X a)
          | _ -> fail line_no "x takes one operand")
        | "y" -> (
          match operands () with
          | [ a ] -> push (Gate.Y a)
          | _ -> fail line_no "y takes one operand")
        | "z" -> (
          match operands () with
          | [ a ] -> push (Gate.Z a)
          | _ -> fail line_no "z takes one operand")
        | "h" -> (
          match operands () with
          | [ a ] -> push (Gate.H a)
          | _ -> fail line_no "h takes one operand")
        | "s" -> (
          match operands () with
          | [ a ] -> push (Gate.S a)
          | _ -> fail line_no "s takes one operand")
        | "sdg" -> (
          match operands () with
          | [ a ] -> push (Gate.Sdg a)
          | _ -> fail line_no "sdg takes one operand")
        | "t" -> (
          match operands () with
          | [ a ] -> push (Gate.T a)
          | _ -> fail line_no "t takes one operand")
        | "tdg" -> (
          match operands () with
          | [ a ] -> push (Gate.Tdg a)
          | _ -> fail line_no "tdg takes one operand")
        | "rx" -> (
          match operands () with
          | [ a ] -> push (Gate.Rx (one_angle (), a))
          | _ -> fail line_no "rx takes one operand")
        | "ry" -> (
          match operands () with
          | [ a ] -> push (Gate.Ry (one_angle (), a))
          | _ -> fail line_no "ry takes one operand")
        | "rz" -> (
          match operands () with
          | [ a ] -> push (Gate.Rz (one_angle (), a))
          | _ -> fail line_no "rz takes one operand")
        | "u1" | "p" -> (
          match operands () with
          | [ a ] -> push (Gate.Phase (one_angle (), a))
          | _ -> fail line_no "u1 takes one operand")
        | "u2" -> (
          (* u2(phi, lambda) = Rz(phi) Ry(pi/2) Rz(lambda), up to global
             phase. *)
          match (angles (), operands ()) with
          | [ phi; lambda ], [ a ] ->
            push (Gate.Rz (lambda, a));
            push (Gate.Ry (2.0 *. atan 1.0, a));
            push (Gate.Rz (phi, a))
          | _, _ -> fail line_no "u2 takes two angles and one operand")
        | "u3" | "u" -> (
          (* u3(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda), up
             to global phase. *)
          match (angles (), operands ()) with
          | [ theta; phi; lambda ], [ a ] ->
            push (Gate.Rz (lambda, a));
            push (Gate.Ry (theta, a));
            push (Gate.Rz (phi, a))
          | _, _ -> fail line_no "u3 takes three angles and one operand")
        | "cx" -> (
          match operands () with
          | [ a; b ] -> push (Gate.Cnot { control = a; target = b })
          | _ -> fail line_no "cx takes two operands")
        | "cz" -> (
          match operands () with
          | [ a; b ] -> push (Gate.Cz (a, b))
          | _ -> fail line_no "cz takes two operands")
        | "swap" -> (
          match operands () with
          | [ a; b ] -> push (Gate.Swap (a, b))
          | _ -> fail line_no "swap takes two operands")
        | "ccx" -> (
          match operands () with
          | [ a; b; c ] -> push (Gate.Toffoli { c1 = a; c2 = b; target = c })
          | _ -> fail line_no "ccx takes three operands")
        | other -> fail line_no (Printf.sprintf "unsupported statement %S" other))
    lines;
  let gates = List.rev !gates in
  (* End-of-parse failures point at the last line of the input: the
     offence is something the whole file failed to declare, not a
     fictitious "line 0". *)
  let end_line = max 1 (List.length lines) in
  if !next_base = 0 then
    raise
      (Parse_error
         { line = end_line; message = "no qreg declaration (end of input)" });
  match Circuit.make ~n:!next_base gates with
  | c -> c
  | exception Invalid_argument msg ->
    raise (Parse_error { line = end_line; message = msg })
