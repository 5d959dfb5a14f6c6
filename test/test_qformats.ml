let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_circuit =
  Circuit.make ~n:3
    [
      Gate.H 0;
      Gate.T 1;
      Gate.Tdg 1;
      Gate.S 2;
      Gate.Sdg 2;
      Gate.X 0;
      Gate.Y 1;
      Gate.Z 2;
      Gate.Cnot { control = 0; target = 1 };
      Gate.Cz (1, 2);
      Gate.Swap (0, 2);
      Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
    ]

(* --- QASM --- *)

let test_qasm_roundtrip () =
  let printed = Qformats.Qasm.to_string sample_circuit in
  let parsed = Qformats.Qasm.of_string printed in
  check_bool "round trip" true (Circuit.equal sample_circuit parsed)

let test_qasm_parse_handwritten () =
  let src =
    "OPENQASM 2.0;\n\
     include \"qelib1.inc\";\n\
     // a comment\n\
     qreg q[2];\n\
     creg c[2];\n\
     h q[0];\n\
     cx q[0],q[1];\n\
     barrier q[0];\n\
     measure q[0] -> c[0];\n"
  in
  let c = Qformats.Qasm.of_string src in
  check_int "width" 2 (Circuit.n_qubits c);
  check_bool "gates" true
    (Circuit.gates c = [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ])

let test_qasm_angle_expressions () =
  let pi = 4.0 *. atan 1.0 in
  let src =
    "qreg q[2];\n\
     rz(pi/2) q[0];\n\
     u1(3*pi/4) q[1];\n\
     rx(-pi) q[0];\n\
     ry(2*(pi - pi/2)) q[1];\n\
     rz(0.5e1) q[0];\n"
  in
  let c = Qformats.Qasm.of_string src in
  let close a b = abs_float (a -. b) < 1e-12 in
  (match Circuit.gates c with
  | [ Gate.Rz (a, 0); Gate.Phase (b, 1); Gate.Rx (c', 0); Gate.Ry (d, 1);
      Gate.Rz (e, 0) ] ->
    check_bool "pi/2" true (close a (pi /. 2.0));
    check_bool "3*pi/4" true (close b (3.0 *. pi /. 4.0));
    check_bool "-pi" true (close c' (-.pi));
    check_bool "parens" true (close d pi);
    check_bool "scientific" true (close e 5.0)
  | _ -> Alcotest.fail "unexpected gate sequence");
  (* Malformed expressions rejected. *)
  List.iter
    (fun bad ->
      match Qformats.Qasm.of_string ("qreg q[1];\n" ^ bad ^ "\n") with
      | exception Qformats.Qasm.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted " ^ bad))
    [ "rz(pi/0) q[0];"; "rz(pj) q[0];"; "rz(1+) q[0];"; "rz() q[0];" ]

let test_qasm_u_gates () =
  (* u3(theta, phi, lambda) must implement the IBM u3 up to global
     phase; check u3(pi/2, 0, pi) = H. *)
  let c = Qformats.Qasm.of_string "qreg q[1];\nu3(pi/2, 0, pi) q[0];\n" in
  check_bool "u3 = H up to phase" true
    (Mathkit.Matrix.equal_up_to_global_phase (Sim.unitary c)
       (Gate.base_matrix (Gate.H 0)));
  (* u2(0, pi) = H too. *)
  let c2 = Qformats.Qasm.of_string "qreg q[1];\nu2(0, pi) q[0];\n" in
  check_bool "u2(0,pi) = H up to phase" true
    (Mathkit.Matrix.equal_up_to_global_phase (Sim.unitary c2)
       (Gate.base_matrix (Gate.H 0)));
  (* u1(x) = Phase(x). *)
  let c3 = Qformats.Qasm.of_string "qreg q[1];\np(pi/4) q[0];\n" in
  check_bool "p = T" true
    (Mathkit.Matrix.approx_equal ~eps:1e-12 (Sim.unitary c3)
       (Gate.base_matrix (Gate.T 0)))

let test_qasm_multi_register () =
  let src =
    "qreg a[2];\nqreg b[3];\nh a[0];\ncx a[1],b[0];\nx b[2];\n"
  in
  let c = Qformats.Qasm.of_string src in
  check_int "total width" 5 (Circuit.n_qubits c);
  check_bool "layout in declaration order" true
    (Circuit.gates c
    = [ Gate.H 0; Gate.Cnot { control = 1; target = 2 }; Gate.X 4 ]);
  (* Out-of-range index within a register is rejected. *)
  (match Qformats.Qasm.of_string "qreg a[2];\nh a[2];\n" with
  | exception Qformats.Qasm.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range register index");
  match Qformats.Qasm.of_string "qreg a[2];\nqreg a[2];\n" with
  | exception Qformats.Qasm.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted duplicate register"

let test_qasm_errors () =
  let expect_error s =
    match Qformats.Qasm.of_string s with
    | exception Qformats.Qasm.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted bad QASM: " ^ s)
  in
  expect_error "qreg q[2];\nfrobnicate q[0];";
  expect_error "h q[0];";
  (* no qreg *)
  expect_error "qreg q[2];\ncx q[0];";
  match Qformats.Qasm.to_string (Circuit.make ~n:4 [ Gate.mct [ 0; 1; 2 ] 3 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "printed an MCT in QASM 2.0"

(* --- .qc --- *)

let test_qc_roundtrip () =
  let printed = Qformats.Qc.to_string sample_circuit in
  let parsed = Qformats.Qc.of_string printed in
  check_bool "round trip" true (Circuit.equal sample_circuit parsed.Qformats.Qc.circuit)

let test_qc_parse_dialect () =
  let src =
    ".v a b c d\n\
     .i a b c\n\
     .o d\n\
     # comment line\n\
     BEGIN\n\
     H a\n\
     T* b\n\
     not c\n\
     tof a b\n\
     tof a b c\n\
     t4 a b c d\n\
     END\n"
  in
  let parsed = Qformats.Qc.of_string src in
  let expected =
    [
      Gate.H 0;
      Gate.Tdg 1;
      Gate.X 2;
      Gate.Cnot { control = 0; target = 1 };
      Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 };
    ]
  in
  check_bool "gates" true (Circuit.gates parsed.Qformats.Qc.circuit = expected);
  check_bool "inputs" true (parsed.Qformats.Qc.inputs = [ 0; 1; 2 ]);
  check_bool "outputs" true (parsed.Qformats.Qc.outputs = [ 3 ])

let test_qc_errors () =
  let expect_error s =
    match Qformats.Qc.of_string s with
    | exception Qformats.Qc.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted bad .qc: " ^ s)
  in
  expect_error ".v a b\nBEGIN\nH z\nEND\n";
  (* undeclared wire *)
  expect_error ".v a b\nH a\n";
  (* gate outside body *)
  expect_error ".v a a\nBEGIN\nEND\n";
  (* duplicate wire *)
  expect_error "BEGIN\nEND\n"

(* --- .real --- *)

let test_real_roundtrip () =
  let reversible =
    Circuit.make ~n:4
      [
        Gate.X 0;
        Gate.Cnot { control = 0; target = 1 };
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 };
        Gate.Swap (1, 3);
      ]
  in
  let printed = Qformats.Real.to_string reversible in
  let parsed = Qformats.Real.of_string printed in
  check_bool "round trip" true
    (Circuit.equal reversible parsed.Qformats.Real.circuit)

let test_real_fredkin_expansion () =
  let src =
    ".version 1.0\n\
     .numvars 3\n\
     .variables a b c\n\
     .begin\n\
     f3 a b c\n\
     .end\n"
  in
  let parsed = Qformats.Real.of_string src in
  let c = parsed.Qformats.Real.circuit in
  (* Expanded Fredkin must behave as a controlled SWAP on every basis
     state. *)
  let cswap = Circuit.make ~n:3 [ Gate.X 0; Gate.Swap (1, 2); Gate.X 0 ] in
  ignore cswap;
  let ok = ref true in
  for idx = 0 to 7 do
    let bits = Array.init 3 (fun q -> (idx lsr (2 - q)) land 1 = 1) in
    match Sim.classical_run c (Array.copy bits) with
    | None -> ok := false
    | Some out ->
      let expected =
        if bits.(0) then [| bits.(0); bits.(2); bits.(1) |] else bits
      in
      if out <> expected then ok := false
  done;
  check_bool "fredkin semantics" true !ok

let test_real_rejects_quantum_gates () =
  match Qformats.Real.to_string (Circuit.make ~n:1 [ Gate.H 0 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "printed H in .real"

let test_real_numvars_mismatch () =
  let src = ".numvars 2\n.variables a b c\n.begin\n.end\n" in
  match Qformats.Real.of_string src with
  | exception Qformats.Real.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted .numvars mismatch"

(* --- PLA --- *)

let test_pla_parse_and_eval () =
  let src = ".i 3\n.o 1\n101 1\n1-0 1\n.e\n" in
  let pla = Qformats.Pla.of_string src in
  check_int "inputs" 3 pla.Qformats.Pla.n_inputs;
  check_int "cubes" 2 (List.length pla.Qformats.Pla.cubes);
  (* SOP semantics: f = a.~b.c + a.~c *)
  check_bool "101 -> 1" true
    (Qformats.Pla.eval pla ~output:0 [| true; false; true |]);
  check_bool "110 -> 1" true
    (Qformats.Pla.eval pla ~output:0 [| true; true; false |]);
  check_bool "111 -> 0" false
    (Qformats.Pla.eval pla ~output:0 [| true; true; true |]);
  check_bool "000 -> 0" false
    (Qformats.Pla.eval pla ~output:0 [| false; false; false |])

let test_pla_esop_semantics () =
  (* Overlapping cubes cancel under ESOP. *)
  let src = ".i 2\n.o 1\n.type esop\n1- 1\n11 1\n.e\n" in
  let pla = Qformats.Pla.of_string src in
  check_bool "10 -> 1" true (Qformats.Pla.eval pla ~output:0 [| true; false |]);
  check_bool "11 -> 0 (xor cancels)" false
    (Qformats.Pla.eval pla ~output:0 [| true; true |])

let test_pla_truth_table () =
  let src = ".i 2\n.o 2\n11 10\n0- 01\n.e\n" in
  let pla = Qformats.Pla.of_string src in
  check_bool "output 0 table" true
    (Qformats.Pla.truth_table pla ~output:0 = [| false; false; false; true |]);
  check_bool "output 1 table" true
    (Qformats.Pla.truth_table pla ~output:1 = [| true; true; false; false |])

let test_pla_roundtrip () =
  let src = ".i 3\n.o 1\n.type esop\n1-1 1\n010 1\n.e\n" in
  let pla = Qformats.Pla.of_string src in
  let pla2 = Qformats.Pla.of_string (Qformats.Pla.to_string pla) in
  check_bool "tables agree" true
    (Qformats.Pla.truth_table pla ~output:0
    = Qformats.Pla.truth_table pla2 ~output:0)

let test_pla_errors () =
  let expect_error s =
    match Qformats.Pla.of_string s with
    | exception Qformats.Pla.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted bad PLA: " ^ s)
  in
  expect_error "11 1\n";
  expect_error ".i 2\n.o 1\n111 1\n.e\n";
  expect_error ".i 2\n.o 1\n1x 1\n.e\n"

(* --- file round trips --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "qformats" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_file_roundtrips () =
  (* Each format survives a trip through a file: printed with
     [to_string], written, read back whole and parsed with
     [of_string]. *)
  with_temp_dir (fun dir ->
      let through name text =
        let path = Filename.concat dir name in
        Testutil.write_file path text;
        In_channel.with_open_text path In_channel.input_all
      in
      check_bool "qasm file" true
        (Circuit.equal sample_circuit
           (Qformats.Qasm.of_string
              (through "c.qasm" (Qformats.Qasm.to_string sample_circuit))));
      check_bool "qc file" true
        (Circuit.equal sample_circuit
           (Qformats.Qc.of_string
              (through "c.qc" (Qformats.Qc.to_string sample_circuit)))
             .Qformats.Qc.circuit);
      let reversible =
        Circuit.make ~n:3
          [ Gate.X 0; Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
      in
      check_bool "real file" true
        (Circuit.equal reversible
           (Qformats.Real.of_string
              (through "c.real" (Qformats.Real.to_string reversible)))
             .Qformats.Real.circuit);
      let pla = Qformats.Pla.of_string ".i 2\n.o 1\n11 1\n.e\n" in
      check_bool "pla file" true
        (Qformats.Pla.truth_table
           (Qformats.Pla.of_string
              (through "f.pla" (Qformats.Pla.to_string pla)))
           ~output:0
        = Qformats.Pla.truth_table pla ~output:0))

let test_whitespace_robustness () =
  (* Tabs and stray blank lines parse everywhere. *)
  let qc = ".v\ta b\n\nBEGIN\n\tH\ta\n   t2  a   b\nEND\n" in
  let parsed = Qformats.Qc.of_string qc in
  check_bool "qc tabs" true
    (Circuit.gates parsed.Qformats.Qc.circuit
    = [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]);
  let real = ".numvars 2\n.variables\ta b\n.begin\n\tt2\ta\tb\n.end\n" in
  check_bool "real tabs" true
    ((Qformats.Real.of_string real).Qformats.Real.circuit
    |> Circuit.gates
    = [ Gate.Cnot { control = 0; target = 1 } ])

(* --- benchmark fixpoints --- *)

(* Every benchmark circuit, lowered to the native library (OpenQASM 2.0
   has no generalized Toffoli), must emit -> parse -> emit to the exact
   same text: the emitted dialect is a fixed point of the parser. *)
let native_benchmarks () =
  let lower ~n c = Decompose.to_native (Circuit.widen c n) in
  List.map
    (fun b ->
      ( "#" ^ b.Benchsuite.Single_target.name,
        lower ~n:16 (Benchsuite.Single_target.circuit b) ))
    Benchsuite.Single_target.all
  @ List.map
      (fun b ->
        ( b.Benchsuite.Revlib_cascades.name,
          lower ~n:16 (Benchsuite.Revlib_cascades.circuit b) ))
      Benchsuite.Revlib_cascades.all
  @ List.map
      (fun b ->
        ( b.Benchsuite.Big_cascades.name,
          lower ~n:96 (Benchsuite.Big_cascades.circuit b) ))
      Benchsuite.Big_cascades.all

let test_qasm_benchmark_fixpoint () =
  List.iter
    (fun (name, c) ->
      let once = Qformats.Qasm.to_string c in
      let parsed = Qformats.Qasm.of_string once in
      check_bool (name ^ " circuit preserved") true (Circuit.equal c parsed);
      check_bool (name ^ " emission fixpoint") true
        (String.equal once (Qformats.Qasm.to_string parsed)))
    (native_benchmarks ())

(* --- properties --- *)

let prop_qasm_angle_fixpoint =
  (* Rotation angles are printed with %.17g, which is lossless for any
     finite double: the parsed angle is bit-identical, and a second
     emission reproduces the first byte for byte. *)
  QCheck2.Test.make ~name:"rotation angles survive emission exactly" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 2)
        (oneof
           [
             float_range (-10.) 10.;
             float_range (-1e-9) 1e-9;
             oneofl
               [
                 Float.pi; -.Float.pi; Float.pi /. 3.0; 1.0 /. 3.0;
                 0.1; 1e17; -1.2345678901234567;
               ];
           ]))
    (fun (axis, theta) ->
      let gate =
        match axis with
        | 0 -> Gate.Rx (theta, 0)
        | 1 -> Gate.Ry (theta, 0)
        | _ -> Gate.Rz (theta, 0)
      in
      let c = Circuit.make ~n:1 [ gate ] in
      let once = Qformats.Qasm.to_string c in
      let parsed = Qformats.Qasm.of_string once in
      Circuit.equal c parsed
      && String.equal once (Qformats.Qasm.to_string parsed))

let prop_qasm_roundtrip =
  QCheck2.Test.make ~name:"QASM print-parse round trip" ~count:60
    (Testutil.gen_circuit ~max_gates:20 5)
    (fun c ->
      let printed = Qformats.Qasm.to_string c in
      Circuit.equal c (Qformats.Qasm.of_string printed))

let prop_qc_roundtrip =
  QCheck2.Test.make ~name:".qc print-parse round trip" ~count:60
    (Testutil.gen_circuit ~max_gates:20 5)
    (fun c ->
      let printed = Qformats.Qc.to_string c in
      Circuit.equal c (Qformats.Qc.of_string printed).Qformats.Qc.circuit)

let prop_real_roundtrip =
  QCheck2.Test.make ~name:".real print-parse round trip" ~count:60
    (Testutil.gen_classical_circuit ~max_gates:20 5)
    (fun c ->
      let printed = Qformats.Real.to_string c in
      (* The parser canonicalizes control order, so compare modulo it. *)
      Testutil.equal_canonical c
        (Qformats.Real.of_string printed).Qformats.Real.circuit)

(* --- end-of-input error locations --- *)

(* Failures only detectable once the whole input has been read (a
   missing mandatory declaration) must point at the last line of the
   input, never a fictitious "line 0". *)

let expect_last_line name parse src =
  let n_lines = List.length (String.split_on_char '\n' src) in
  match parse src with
  | Ok line ->
    check_bool
      (Printf.sprintf "%s: line %d of %d" name line n_lines)
      true
      (line = n_lines && line >= 1)
  | Error () -> Alcotest.failf "%s: parsed successfully" name

let test_end_of_input_lines () =
  expect_last_line "qasm no qreg"
    (fun src ->
      match Qformats.Qasm.of_string src with
      | _ -> Error ()
      | exception Qformats.Qasm.Parse_error { line; _ } -> Ok line)
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// no register\n";
  expect_last_line "qc no .v"
    (fun src ->
      match Qformats.Qc.of_string src with
      | _ -> Error ()
      | exception Qformats.Qc.Parse_error { line; _ } -> Ok line)
    "# wires forgotten\nBEGIN\nEND\n";
  expect_last_line "real no .variables"
    (fun src ->
      match Qformats.Real.of_string src with
      | _ -> Error ()
      | exception Qformats.Real.Parse_error { line; _ } -> Ok line)
    ".version 2.0\n.begin\n.end\n";
  expect_last_line "real numvars mismatch"
    (fun src ->
      match Qformats.Real.of_string src with
      | _ -> Error ()
      | exception Qformats.Real.Parse_error { line; _ } -> Ok line)
    ".version 2.0\n.numvars 3\n.variables a b\n.begin\n.end\n";
  expect_last_line "pla missing .i/.o"
    (fun src ->
      match Qformats.Pla.of_string src with
      | _ -> Error ()
      | exception Qformats.Pla.Parse_error { line; _ } -> Ok line)
    "# only a type\n.type esop\n.e\n"

let test_empty_input_errors_line_one () =
  (* The degenerate empty input still reports a positive line. *)
  List.iter
    (fun (name, parse) ->
      match parse "" with
      | Some line ->
        check_bool (name ^ ": line 1 on empty input") true (line = 1)
      | None -> Alcotest.failf "%s: empty input parsed" name)
    [
      ( "qasm",
        fun src ->
          match Qformats.Qasm.of_string src with
          | _ -> None
          | exception Qformats.Qasm.Parse_error { line; _ } -> Some line );
      ( "qc",
        fun src ->
          match Qformats.Qc.of_string src with
          | _ -> None
          | exception Qformats.Qc.Parse_error { line; _ } -> Some line );
      ( "real",
        fun src ->
          match Qformats.Real.of_string src with
          | _ -> None
          | exception Qformats.Real.Parse_error { line; _ } -> Some line );
      ( "pla",
        fun src ->
          match Qformats.Pla.of_string src with
          | _ -> None
          | exception Qformats.Pla.Parse_error { line; _ } -> Some line );
    ]

let () =
  Alcotest.run "qformats"
    [
      ( "qasm",
        [
          Alcotest.test_case "round trip" `Quick test_qasm_roundtrip;
          Alcotest.test_case "handwritten" `Quick test_qasm_parse_handwritten;
          Alcotest.test_case "angle expressions" `Quick
            test_qasm_angle_expressions;
          Alcotest.test_case "u gates" `Quick test_qasm_u_gates;
          Alcotest.test_case "multi register" `Quick test_qasm_multi_register;
          Alcotest.test_case "errors" `Quick test_qasm_errors;
          Alcotest.test_case "benchmark fixpoint" `Quick
            test_qasm_benchmark_fixpoint;
          QCheck_alcotest.to_alcotest prop_qasm_roundtrip;
          QCheck_alcotest.to_alcotest prop_qasm_angle_fixpoint;
        ] );
      ( "qc",
        [
          Alcotest.test_case "round trip" `Quick test_qc_roundtrip;
          Alcotest.test_case "dialect" `Quick test_qc_parse_dialect;
          Alcotest.test_case "errors" `Quick test_qc_errors;
          QCheck_alcotest.to_alcotest prop_qc_roundtrip;
        ] );
      ( "real",
        [
          Alcotest.test_case "round trip" `Quick test_real_roundtrip;
          Alcotest.test_case "fredkin" `Quick test_real_fredkin_expansion;
          Alcotest.test_case "rejects quantum" `Quick
            test_real_rejects_quantum_gates;
          Alcotest.test_case "numvars mismatch" `Quick test_real_numvars_mismatch;
          QCheck_alcotest.to_alcotest prop_real_roundtrip;
        ] );
      ( "pla",
        [
          Alcotest.test_case "parse/eval" `Quick test_pla_parse_and_eval;
          Alcotest.test_case "esop semantics" `Quick test_pla_esop_semantics;
          Alcotest.test_case "truth table" `Quick test_pla_truth_table;
          Alcotest.test_case "round trip" `Quick test_pla_roundtrip;
          Alcotest.test_case "errors" `Quick test_pla_errors;
        ] );
      ( "files",
        [
          Alcotest.test_case "round trips" `Quick test_file_roundtrips;
          Alcotest.test_case "whitespace" `Quick test_whitespace_robustness;
        ] );
      ( "error locations",
        [
          Alcotest.test_case "end-of-input errors use last line" `Quick
            test_end_of_input_lines;
          Alcotest.test_case "empty input errors on line 1" `Quick
            test_empty_input_errors_line_one;
        ] );
    ]
