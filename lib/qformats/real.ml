exception Parse_error of { line : int; message : string }

type t = {
  circuit : Circuit.t;
  names : string array;
  constants : string option;
  garbage : string option;
}

(* Controlled SWAP on (a, b) with [controls]: CNOT(b,a) then an MCT with
   a joined to the controls targeting b, then CNOT(b,a) again. *)
let fredkin controls a b =
  let cnot = Gate.Cnot { control = b; target = a } in
  [ cnot; Gate.mct (a :: controls) b; cnot ]

let gate_of ~line_no mnemonic operands =
  let fail message = raise (Parse_error { line = line_no; message }) in
  let arity k =
    if List.length operands <> k then
      fail (Printf.sprintf "%s takes %d operands" mnemonic k)
  in
  let m = String.lowercase_ascii mnemonic in
  let numbered prefix =
    if String.length m >= 2 && m.[0] = prefix then
      int_of_string_opt (String.sub m 1 (String.length m - 1))
    else None
  in
  match numbered 't' with
  | Some k when k >= 1 -> (
    arity k;
    match List.rev operands with
    | target :: rev_controls -> (
      match Gate.mct (List.rev rev_controls) target with
      | g -> [ g ]
      | exception Invalid_argument msg -> fail msg)
    | [] -> fail "empty gate")
  | Some _ | None -> (
    match numbered 'f' with
    | Some 2 -> (
      arity 2;
      match operands with
      | [ a; b ] -> [ Gate.Swap (a, b) ]
      | _ -> assert false)
    | Some k when k >= 3 -> (
      arity k;
      match List.rev operands with
      | b :: a :: rev_controls -> fredkin (List.rev rev_controls) a b
      | _ -> assert false)
    | Some _ | None ->
      fail (Printf.sprintf "unsupported .real gate %S" mnemonic))

let of_string source =
  let lines = String.split_on_char '\n' source in
  let declared_numvars = ref None in
  let names = ref [] in
  let name_index = Hashtbl.create 16 in
  let constants = ref None and garbage = ref None in
  let gates = ref [] in
  let in_body = ref false in
  let fail line_no message = raise (Parse_error { line = line_no; message }) in
  let resolve line_no w =
    match Hashtbl.find_opt name_index w with
    | Some i -> i
    | None -> fail line_no (Printf.sprintf "undeclared variable %S" w)
  in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      match Words.of_line raw with
      | [] -> ()
      | ".version" :: _ -> ()
      | [ ".numvars"; k ] -> (
        match int_of_string_opt k with
        | Some v when v > 0 -> declared_numvars := Some v
        | Some _ | None -> fail line_no "bad .numvars")
      | ".variables" :: ws ->
        List.iter
          (fun w ->
            if Hashtbl.mem name_index w then
              fail line_no (Printf.sprintf "duplicate variable %S" w);
            Hashtbl.add name_index w (List.length !names);
            names := !names @ [ w ])
          ws
      | ".constants" :: ws -> constants := Some (String.concat " " ws)
      | ".garbage" :: ws -> garbage := Some (String.concat " " ws)
      | [ ".begin" ] -> in_body := true
      | [ ".end" ] -> in_body := false
      | directive :: _ when String.length directive > 0 && directive.[0] = '.' ->
        ()
      | mnemonic :: operand_names ->
        if not !in_body then fail line_no "gate outside .begin/.end block"
        else begin
          let operands = List.map (resolve line_no) operand_names in
          List.iter
            (fun g -> gates := g :: !gates)
            (gate_of ~line_no mnemonic operands)
        end)
    lines;
  let n = List.length !names in
  (* End-of-parse failures point at the last line of the input rather
     than a fictitious "line 0". *)
  let end_line = max 1 (List.length lines) in
  if n = 0 then
    raise
      (Parse_error
         {
           line = end_line;
           message = "no .variables declaration (end of input)";
         });
  (match !declared_numvars with
  | Some v when v <> n ->
    raise
      (Parse_error
         {
           line = end_line;
           message = ".numvars disagrees with .variables count";
         })
  | Some _ | None -> ());
  match Circuit.make ~n (List.rev !gates) with
  | circuit ->
    {
      circuit;
      names = Array.of_list !names;
      constants = !constants;
      garbage = !garbage;
    }
  | exception Invalid_argument msg ->
    raise (Parse_error { line = end_line; message = msg })

let gate_to_real names g =
  let name i = names.(i) in
  let join ops = String.concat " " (List.map name ops) in
  match g with
  | Gate.X a -> Printf.sprintf "t1 %s" (name a)
  | Gate.Cnot { control; target } -> "t2 " ^ join [ control; target ]
  | Gate.Toffoli { c1; c2; target } -> "t3 " ^ join [ c1; c2; target ]
  | Gate.Mct { controls; target } ->
    Printf.sprintf "t%d %s"
      (List.length controls + 1)
      (join (controls @ [ target ]))
  | Gate.Swap (a, b) -> "f2 " ^ join [ a; b ]
  | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _ | Gate.T _
  | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ | Gate.Cz _
    ->
    invalid_arg
      (Printf.sprintf "Real.to_string: %s is not a reversible-logic gate"
         (Gate.to_string g))

let to_string c =
  let n = Circuit.n_qubits c in
  let names = Array.init n (Printf.sprintf "x%d") in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ".version 2.0\n";
  Buffer.add_string buf (Printf.sprintf ".numvars %d\n" n);
  Buffer.add_string buf
    (".variables " ^ String.concat " " (Array.to_list names) ^ "\n");
  Buffer.add_string buf ".begin\n";
  Circuit.iter
    (fun g ->
      Buffer.add_string buf (gate_to_real names g);
      Buffer.add_char buf '\n')
    c;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
