exception Parse_error of { line : int; message : string }

type literal = Zero | One | Dash
type kind = Sop | Esop
type cube = { inputs : literal array; outputs : bool array }

type t = {
  n_inputs : int;
  n_outputs : int;
  kind : kind;
  cubes : cube list;
}

let of_string source =
  let lines = String.split_on_char '\n' source in
  let n_inputs = ref 0 and n_outputs = ref 0 in
  let kind = ref Sop in
  let cubes = ref [] in
  let fail line_no message = raise (Parse_error { line = line_no; message }) in
  let parse_literal line_no ch =
    match ch with
    | '0' -> Zero
    | '1' -> One
    | '-' | '~' -> Dash
    | _ -> fail line_no (Printf.sprintf "bad input literal %C" ch)
  in
  let parse_output line_no ch =
    match ch with
    | '1' -> true
    | '0' | '-' | '~' -> false
    | _ -> fail line_no (Printf.sprintf "bad output literal %C" ch)
  in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      match Words.of_line raw with
      | [] -> ()
      | [ ".i"; k ] -> (
        match int_of_string_opt k with
        | Some v when v > 0 -> n_inputs := v
        | Some _ | None -> fail line_no "bad .i")
      | [ ".o"; k ] -> (
        match int_of_string_opt k with
        | Some v when v > 0 -> n_outputs := v
        | Some _ | None -> fail line_no "bad .o")
      | ".type" :: [ ty ] -> (
        match String.lowercase_ascii ty with
        | "esop" -> kind := Esop
        | "fr" | "f" | "fd" | "fdr" -> kind := Sop
        | other -> fail line_no (Printf.sprintf "unsupported .type %s" other))
      | [ ".e" ] | [ ".end" ] -> ()
      | ".p" :: _ | ".ilb" :: _ | ".ob" :: _ -> ()
      | directive :: _ when String.length directive > 0 && directive.[0] = '.' ->
        fail line_no (Printf.sprintf "unsupported directive %s" directive)
      | [ ins; outs ] ->
        if !n_inputs = 0 || !n_outputs = 0 then
          fail line_no "cube before .i/.o declarations";
        if String.length ins <> !n_inputs then
          fail line_no "wrong input column count";
        if String.length outs <> !n_outputs then
          fail line_no "wrong output column count";
        let inputs =
          Array.init !n_inputs (fun i -> parse_literal line_no ins.[i])
        in
        let outputs =
          Array.init !n_outputs (fun i -> parse_output line_no outs.[i])
        in
        cubes := { inputs; outputs } :: !cubes
      | _ -> fail line_no "malformed line")
    lines;
  if !n_inputs = 0 || !n_outputs = 0 then
    (* Point at the last line: the whole file failed to declare the
       sizes, there is no offending "line 0". *)
    raise
      (Parse_error
         {
           line = max 1 (List.length lines);
           message = "missing .i or .o declaration (end of input)";
         });
  {
    n_inputs = !n_inputs;
    n_outputs = !n_outputs;
    kind = !kind;
    cubes = List.rev !cubes;
  }

let to_string pla =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" pla.n_inputs pla.n_outputs);
  if pla.kind = Esop then Buffer.add_string buf ".type esop\n";
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length pla.cubes));
  List.iter
    (fun cube ->
      Array.iter
        (fun l ->
          Buffer.add_char buf (match l with Zero -> '0' | One -> '1' | Dash -> '-'))
        cube.inputs;
      Buffer.add_char buf ' ';
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) cube.outputs;
      Buffer.add_char buf '\n')
    pla.cubes;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let cube_matches cube bits =
  let ok = ref true in
  Array.iteri
    (fun i l ->
      match l with
      | Zero -> if bits.(i) then ok := false
      | One -> if not bits.(i) then ok := false
      | Dash -> ())
    cube.inputs;
  !ok

let eval pla ~output bits =
  if Array.length bits <> pla.n_inputs then
    invalid_arg "Pla.eval: wrong assignment width";
  if output < 0 || output >= pla.n_outputs then
    invalid_arg "Pla.eval: output out of range";
  let combine = match pla.kind with Sop -> ( || ) | Esop -> ( <> ) in
  List.fold_left
    (fun acc cube ->
      combine acc (cube.outputs.(output) && cube_matches cube bits))
    false pla.cubes

let truth_table pla ~output =
  let n = pla.n_inputs in
  Array.init (1 lsl n) (fun k ->
      let bits = Array.init n (fun i -> (k lsr (n - 1 - i)) land 1 = 1) in
      eval pla ~output bits)
