exception Parse_error of { line : int; message : string }

type t = {
  circuit : Circuit.t;
  inputs : int list;
  outputs : int list;
  names : string array;
}

(* Build the gate for a mnemonic applied to operand qubit indices; the
   conventions of the format put the target last. *)
let gate_of ~line_no mnemonic operands =
  let fail message = raise (Parse_error { line = line_no; message }) in
  (* Parametric gates carry the angle in the mnemonic: rz(0.25). *)
  let mnemonic, angle =
    match String.index_opt mnemonic '(' with
    | None -> (mnemonic, None)
    | Some lp ->
      let base = String.sub mnemonic 0 lp in
      let arg = String.sub mnemonic (lp + 1) (String.length mnemonic - lp - 1) in
      let arg =
        if String.length arg > 0 && arg.[String.length arg - 1] = ')' then
          String.sub arg 0 (String.length arg - 1)
        else arg
      in
      (match float_of_string_opt (String.trim arg) with
      | Some v -> (base, Some v)
      | None -> fail (Printf.sprintf "bad rotation angle %S" arg))
  in
  let angle_of () =
    match angle with
    | Some v -> v
    | None -> fail (mnemonic ^ " needs an angle, e.g. rz(0.5)")
  in
  let one f =
    match operands with
    | [ a ] -> f a
    | _ -> fail (mnemonic ^ " takes one operand")
  in
  let two f =
    match operands with
    | [ a; b ] -> f a b
    | _ -> fail (mnemonic ^ " takes two operands")
  in
  let mct_family () =
    match List.rev operands with
    | [] -> fail (mnemonic ^ " needs operands")
    | target :: rev_controls -> (
      match Gate.mct (List.rev rev_controls) target with
      | g -> g
      | exception Invalid_argument msg -> fail msg)
  in
  match String.lowercase_ascii mnemonic with
  | "h" -> one (fun a -> Gate.H a)
  | "x" | "not" | "t1" -> one (fun a -> Gate.X a)
  | "y" -> one (fun a -> Gate.Y a)
  | "z" -> one (fun a -> Gate.Z a)
  | "s" -> one (fun a -> Gate.S a)
  | "s*" | "sdg" -> one (fun a -> Gate.Sdg a)
  | "t" -> one (fun a -> Gate.T a)
  | "t*" | "tdg" -> one (fun a -> Gate.Tdg a)
  | "rx" -> one (fun a -> Gate.Rx (angle_of (), a))
  | "ry" -> one (fun a -> Gate.Ry (angle_of (), a))
  | "rz" -> one (fun a -> Gate.Rz (angle_of (), a))
  | "p" | "u1" | "phase" -> one (fun a -> Gate.Phase (angle_of (), a))
  | "cnot" | "t2" -> two (fun a b -> Gate.Cnot { control = a; target = b })
  | "cz" -> two (fun a b -> Gate.Cz (a, b))
  | "swap" | "f2" -> two (fun a b -> Gate.Swap (a, b))
  | "toffoli" | "t3" -> (
    match operands with
    | [ a; b; c ] -> Gate.Toffoli { c1 = a; c2 = b; target = c }
    | _ -> fail "t3 takes three operands")
  | "tof" -> mct_family ()
  | m when String.length m >= 2 && m.[0] = 't' -> (
    match int_of_string_opt (String.sub m 1 (String.length m - 1)) with
    | Some k when k >= 1 ->
      if List.length operands <> k then
        fail (Printf.sprintf "%s takes %d operands" mnemonic k)
      else mct_family ()
    | Some _ | None -> fail (Printf.sprintf "unknown gate %S" mnemonic))
  | _ -> fail (Printf.sprintf "unknown gate %S" mnemonic)

let of_string source =
  let lines = String.split_on_char '\n' source in
  let names = ref [] in
  let name_index = Hashtbl.create 16 in
  let inputs = ref [] and outputs = ref [] in
  let gates = ref [] in
  let in_body = ref false in
  let fail line_no message = raise (Parse_error { line = line_no; message }) in
  let resolve line_no w =
    match Hashtbl.find_opt name_index w with
    | Some i -> i
    | None -> fail line_no (Printf.sprintf "undeclared wire %S" w)
  in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      match Words.of_line raw with
      | [] -> ()
      | ".v" :: ws ->
        List.iter
          (fun w ->
            if Hashtbl.mem name_index w then
              fail line_no (Printf.sprintf "duplicate wire %S" w);
            Hashtbl.add name_index w (List.length !names);
            names := !names @ [ w ])
          ws
      | ".i" :: ws -> inputs := List.map (resolve line_no) ws
      | ".o" :: ws -> outputs := List.map (resolve line_no) ws
      | [ word ] when String.uppercase_ascii word = "BEGIN" -> in_body := true
      | [ word ] when String.uppercase_ascii word = "END" -> in_body := false
      | directive :: _ when String.length directive > 0 && directive.[0] = '.' ->
        (* Other directives (.c, .ol, ...) are tolerated and ignored. *)
        ()
      | mnemonic :: operand_names ->
        if not !in_body then
          fail line_no "gate outside BEGIN/END block"
        else
          let operands = List.map (resolve line_no) operand_names in
          gates := gate_of ~line_no mnemonic operands :: !gates)
    lines;
  let n = List.length !names in
  (* End-of-parse failures point at the last line of the input rather
     than a fictitious "line 0". *)
  let end_line = max 1 (List.length lines) in
  if n = 0 then
    raise
      (Parse_error
         { line = end_line; message = "no .v declaration (end of input)" });
  match Circuit.make ~n (List.rev !gates) with
  | circuit ->
    {
      circuit;
      inputs = !inputs;
      outputs = !outputs;
      names = Array.of_list !names;
    }
  | exception Invalid_argument msg ->
    raise (Parse_error { line = end_line; message = msg })

let gate_to_qc g =
  let q i = Printf.sprintf "q%d" i in
  let join ops = String.concat " " (List.map q ops) in
  match g with
  | Gate.H a -> "H " ^ q a
  | Gate.X a -> "X " ^ q a
  | Gate.Y a -> "Y " ^ q a
  | Gate.Z a -> "Z " ^ q a
  | Gate.S a -> "S " ^ q a
  | Gate.Sdg a -> "S* " ^ q a
  | Gate.T a -> "T " ^ q a
  | Gate.Tdg a -> "T* " ^ q a
  | Gate.Rx (theta, a) -> Printf.sprintf "rx(%.17g) %s" theta (q a)
  | Gate.Ry (theta, a) -> Printf.sprintf "ry(%.17g) %s" theta (q a)
  | Gate.Rz (theta, a) -> Printf.sprintf "rz(%.17g) %s" theta (q a)
  | Gate.Phase (theta, a) -> Printf.sprintf "p(%.17g) %s" theta (q a)
  | Gate.Cnot { control; target } -> "t2 " ^ join [ control; target ]
  | Gate.Cz (a, b) -> "cz " ^ join [ a; b ]
  | Gate.Swap (a, b) -> "swap " ^ join [ a; b ]
  | Gate.Toffoli { c1; c2; target } -> "t3 " ^ join [ c1; c2; target ]
  | Gate.Mct { controls; target } ->
    Printf.sprintf "t%d %s"
      (List.length controls + 1)
      (join (controls @ [ target ]))

let to_string c =
  let n = Circuit.n_qubits c in
  let wires = String.concat " " (List.init n (Printf.sprintf "q%d")) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf ".v %s\n.i %s\n.o %s\nBEGIN\n" wires wires wires);
  Circuit.iter
    (fun g ->
      Buffer.add_string buf (gate_to_qc g);
      Buffer.add_char buf '\n')
    c;
  Buffer.add_string buf "END\n";
  Buffer.contents buf
