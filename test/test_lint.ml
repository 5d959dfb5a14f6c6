let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let codes findings = List.map (fun f -> Lint.Rule.code f.Lint.rule) findings

let has_rule rule findings =
  List.exists (fun f -> f.Lint.rule = rule) findings

(* --- rule metadata --- *)

let test_rule_codes_roundtrip () =
  List.iter
    (fun r ->
      check_bool (Lint.Rule.code r ^ " round-trips") true
        (Lint.Rule.of_code (Lint.Rule.code r) = Some r))
    Lint.Rule.all;
  check_bool "unknown code" true (Lint.Rule.of_code "no-such-rule" = None);
  check_int "codes are distinct" (List.length Lint.Rule.all)
    (List.length (List.sort_uniq compare (List.map Lint.Rule.code Lint.Rule.all)))

(* --- circuit diagnostics --- *)

let test_inverse_pair () =
  let c = Circuit.make ~n:2 [ Gate.H 0; Gate.H 0; Gate.X 1 ] in
  let fs = Lint.check c in
  check_bool "self-inverse pair flagged" true (has_rule Lint.Rule.Inverse_pair fs);
  (* Dagger pairs count too. *)
  let c = Circuit.make ~n:1 [ Gate.T 0; Gate.Tdg 0 ] in
  check_bool "T/Tdg pair flagged" true
    (has_rule Lint.Rule.Inverse_pair (Lint.check c));
  (* Same gate on different qubits does not. *)
  let c = Circuit.make ~n:2 [ Gate.H 0; Gate.H 1 ] in
  check_bool "disjoint H pair clean" false
    (has_rule Lint.Rule.Inverse_pair (Lint.check c))

let test_zero_angle () =
  let pi = 4.0 *. atan 1.0 in
  let fs =
    Lint.check (Circuit.make ~n:1 [ Gate.Rz (0.0, 0); Gate.Phase (2.0 *. pi, 0) ])
  in
  check_int "both zero-angle gates flagged" 2
    (List.length (List.filter (fun f -> f.Lint.rule = Lint.Rule.Zero_angle) fs));
  let fs = Lint.check (Circuit.make ~n:1 [ Gate.Rz (1.0, 0) ]) in
  check_bool "nonzero angle clean" false (has_rule Lint.Rule.Zero_angle fs)

let test_overlapping_qubits () =
  let bad = Circuit.make ~n:3 [ Gate.Cnot { control = 1; target = 1 } ] in
  let fs = Lint.check bad in
  check_bool "overlapping CNOT flagged" true
    (has_rule Lint.Rule.Overlapping_qubits fs);
  check_bool "overlap is an error" true (Lint.has_errors fs);
  let bad = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 0; target = 2 } ] in
  check_bool "duplicate Toffoli control flagged" true
    (has_rule Lint.Rule.Overlapping_qubits (Lint.check bad));
  let good = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  check_bool "proper Toffoli clean" false
    (has_rule Lint.Rule.Overlapping_qubits (Lint.check good))

let test_unused_and_width () =
  (* q1 is an interior hole; q3..q4 are trailing padding. *)
  let c = Circuit.make ~n:5 [ Gate.H 0; Gate.X 2 ] in
  let fs = Lint.check c in
  check_int "one interior unused qubit" 1
    (List.length (List.filter (fun f -> f.Lint.rule = Lint.Rule.Unused_qubit) fs));
  check_bool "trailing padding flagged" true
    (has_rule Lint.Rule.Width_mismatch fs);
  check_bool "diagnostics are not errors" false (Lint.has_errors fs);
  let snug = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  check_int "snug circuit clean" 0 (List.length (Lint.check snug))

let test_rule_toggling () =
  let c = Circuit.make ~n:5 [ Gate.H 0; Gate.H 0; Gate.Rz (0.0, 2) ] in
  let only r = Lint.check ~rules:[ r ] c in
  check_bool "only inverse-pair" true
    (codes (only Lint.Rule.Inverse_pair) = [ "inverse-pair" ]);
  check_bool "only zero-angle" true
    (codes (only Lint.Rule.Zero_angle) = [ "zero-angle" ]);
  check_int "empty rule set silences everything" 0
    (List.length (Lint.check ~rules:[] c))

let test_gate_indices () =
  let c =
    Circuit.make ~n:2 [ Gate.X 0; Gate.Rz (0.0, 1); Gate.H 0; Gate.H 0 ]
  in
  let index rule =
    match List.find_opt (fun f -> f.Lint.rule = rule) (Lint.check c) with
    | Some f -> f.Lint.gate_index
    | None -> None
  in
  check_bool "zero-angle at gate 1" true (index Lint.Rule.Zero_angle = Some 1);
  check_bool "inverse pair anchored at first gate" true
    (index Lint.Rule.Inverse_pair = Some 2)

(* --- device legality --- *)

(* ibmqx4 couplings: 1->0, 2->0, 2->1, 3->2, 3->4, 4->2. *)
let qx4 = Device.Ibm.ibmqx4

let test_legality_counterexamples () =
  (* A CNOT on an uncoupled pair and one needing direction reversal get
     distinct rule codes (the ISSUE's acceptance counterexample). *)
  let c =
    Circuit.make ~n:5
      [
        Gate.Cnot { control = 0; target = 3 };
        (* uncoupled on ibmqx4 *)
        Gate.Cnot { control = 0; target = 1 };
        (* only 1->0 native *)
      ]
  in
  let fs = Lint.device_legal qx4 c in
  check_bool "uncoupled code" true (has_rule Lint.Rule.Cnot_uncoupled fs);
  check_bool "direction code" true (has_rule Lint.Rule.Cnot_direction fs);
  check_int "exactly two findings" 2 (List.length fs);
  check_bool "codes distinct" true
    (List.sort_uniq compare (codes fs) = [ "cnot-direction"; "cnot-uncoupled" ]);
  check_bool "all errors" true (Lint.has_errors fs)

let test_legality_non_native_and_width () =
  let c = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  check_bool "Toffoli not device-legal" true
    (has_rule Lint.Rule.Non_native_gate (Lint.device_legal qx4 c));
  let wide = Circuit.empty 6 in
  check_bool "too-wide register flagged" true
    (has_rule Lint.Rule.Width_exceeds_device (Lint.device_legal qx4 wide));
  check_bool "is_device_legal false" false (Lint.is_device_legal qx4 wide)

let test_legality_clean_cases () =
  let legal =
    Circuit.make ~n:5
      [ Gate.H 3; Gate.Cnot { control = 1; target = 0 };
        Gate.Cnot { control = 3; target = 4 }; Gate.T 2 ]
  in
  check_int "legal circuit has no findings" 0
    (List.length (Lint.device_legal qx4 legal));
  (* The simulator imposes nothing on CNOT placement. *)
  let sim = Device.simulator ~n_qubits:5 in
  let c = Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 4 } ] in
  check_bool "simulator legal" true (Lint.is_device_legal sim c)

let prop_routed_output_certified =
  (* Whatever the router emits, the static checker certifies. *)
  QCheck2.Test.make ~name:"router output is lint-clean" ~count:100
    (Testutil.gen_native_circuit ~max_gates:10 5)
    (fun c ->
      List.for_all
        (fun d ->
          let mapped = Route.expand_swaps d (Route.route_circuit_swaps d c) in
          Lint.device_legal d mapped = [])
        [ Device.Ibm.ibmqx2; Device.Ibm.ibmqx4 ])

(* --- certification of compiled benchsuite output --- *)

let compile_no_verify ?(contracts = true) device c =
  Compiler.compile
    {
      (Compiler.default_options ~device) with
      Compiler.verification = Compiler.Skip;
      Compiler.check_contracts = contracts;
    }
    (Compiler.Quantum c)

let benchsuite_circuits () =
  List.map
    (fun b ->
      ( "st_" ^ b.Benchsuite.Single_target.name,
        Benchsuite.Single_target.circuit b ))
    Benchsuite.Single_target.all
  @ List.map
      (fun b ->
        ( "revlib_" ^ b.Benchsuite.Revlib_cascades.name,
          Benchsuite.Revlib_cascades.circuit b ))
      Benchsuite.Revlib_cascades.all
  @ [
      ("ghz5", Benchsuite.Classics.ghz 5);
      ("qft4", Benchsuite.Classics.qft 4);
      ("bv", Benchsuite.Classics.bernstein_vazirani ~secret:0b101 3);
      ("dj_const", Benchsuite.Classics.deutsch_jozsa_constant 3);
      ("dj_bal", Benchsuite.Classics.deutsch_jozsa_balanced 3);
      ("cuccaro3", Benchsuite.Classics.cuccaro_adder 3);
      ("hidden_shift", Benchsuite.Classics.hidden_shift ~shift:0b0110 4);
      ("parity4", Benchsuite.Classics.parity_check 4);
    ]

let test_benchsuite_outputs_certified () =
  (* The acceptance bar: Lint.device_legal certifies the mapped output
     of Compiler.compile for every benchsuite circuit on two built-in
     devices, with the pass contracts audited along the way. *)
  List.iter
    (fun device ->
      List.iter
        (fun (name, c) ->
          let r = compile_no_verify device c in
          let fs = Lint.device_legal device r.Compiler.optimized in
          check_bool
            (Printf.sprintf "%s certified on %s" name (Device.name device))
            true (fs = []);
          check_bool
            (Printf.sprintf "%s unoptimized certified on %s" name
               (Device.name device))
            true
            (Lint.is_device_legal device r.Compiler.unoptimized))
        (benchsuite_circuits ()))
    [ Device.Ibm.ibmqx5; Device.Ibm.tokyo20 ]

let test_big96_cascade_certified () =
  let b = Benchsuite.Big_cascades.find "T6_b" in
  let c = Benchsuite.Big_cascades.circuit b in
  let r = compile_no_verify Device.Ibm.big96 c in
  check_bool "T6_b certified on big96" true
    (Lint.is_device_legal Device.Ibm.big96 r.Compiler.optimized)

(* --- pass contracts --- *)

let test_contract_after_decompose () =
  let native = Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ] in
  check_int "native circuit passes" 0
    (List.length (Lint.Contract.after_decompose native));
  let bad = Circuit.make ~n:4 [ Gate.mct [ 0; 1; 2 ] 3 ] in
  let fs = Lint.Contract.after_decompose bad in
  check_bool "surviving MCT flagged" true (has_rule Lint.Rule.Non_native_gate fs)

let test_contract_after_route () =
  let illegal = Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 3 } ] in
  check_bool "illegal CNOT breaks the route contract" true
    (Lint.Contract.after_route qx4 illegal <> []);
  let mapped = Route.expand_swaps qx4 (Route.route_circuit_swaps qx4 illegal) in
  check_int "routed circuit passes" 0
    (List.length (Lint.Contract.after_route qx4 mapped))

let test_contract_after_optimize () =
  let before = Circuit.make ~n:2 [ Gate.H 0; Gate.H 0 ] in
  let shrunk = Circuit.empty 2 in
  check_int "shrinking passes" 0
    (List.length (Lint.Contract.after_optimize ~before ~after:shrunk));
  let grown = Circuit.make ~n:2 [ Gate.H 0; Gate.H 0; Gate.X 1 ] in
  let fs = Lint.Contract.after_optimize ~before ~after:grown in
  check_bool "growth flagged" true (has_rule Lint.Rule.Volume_increase fs);
  let rewidened = Circuit.empty 3 in
  check_bool "register change flagged" true
    (has_rule Lint.Rule.Width_mismatch
       (Lint.Contract.after_optimize ~before ~after:rewidened))

let test_contract_enforce () =
  Lint.Contract.enforce ~stage:"noop" [];
  let finding =
    List.hd
      (Lint.device_legal qx4
         (Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 3 } ]))
  in
  match Lint.Contract.enforce ~stage:"route" [ finding ] with
  | exception Lint.Contract.Violated msg ->
    check_bool "message names the stage" true
      (String.length msg > 5 && String.sub msg 0 5 = "route");
    check_bool "message carries the rule code" true
      (let rec contains i =
         i + 14 <= String.length msg
         && (String.sub msg i 14 = "cnot-uncoupled" || contains (i + 1))
       in
       contains 0)
  | () -> Alcotest.fail "expected Violated"

let test_compile_strict_green () =
  (* The full pipeline honors its own contracts on every small device
     (with QMDD verification also on, as `qsc compile --strict`). *)
  let cascade =
    Circuit.make ~n:3
      [
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Cnot { control = 0; target = 1 };
        Gate.X 0;
      ]
  in
  List.iter
    (fun device ->
      let r =
        Compiler.compile
          { (Compiler.default_options ~device) with Compiler.check_contracts = true }
          (Compiler.Quantum cascade)
      in
      check_bool (Device.name device ^ " verified under contracts") true
        (Compiler.verified r.Compiler.verification))
    Device.Ibm.all

let prop_compile_strict_random =
  QCheck2.Test.make ~name:"contracts hold on random circuits" ~count:20
    (Testutil.gen_circuit ~max_gates:8 4)
    (fun c ->
      let r = compile_no_verify ~contracts:true Device.Ibm.ibmqx4 c in
      Lint.is_device_legal Device.Ibm.ibmqx4 r.Compiler.optimized)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "codes round-trip" `Quick test_rule_codes_roundtrip;
          Alcotest.test_case "inverse pair" `Quick test_inverse_pair;
          Alcotest.test_case "zero angle" `Quick test_zero_angle;
          Alcotest.test_case "overlapping qubits" `Quick test_overlapping_qubits;
          Alcotest.test_case "unused and width" `Quick test_unused_and_width;
          Alcotest.test_case "rule toggling" `Quick test_rule_toggling;
          Alcotest.test_case "gate indices" `Quick test_gate_indices;
        ] );
      ( "device_legality",
        [
          Alcotest.test_case "counterexamples" `Quick
            test_legality_counterexamples;
          Alcotest.test_case "non-native and width" `Quick
            test_legality_non_native_and_width;
          Alcotest.test_case "clean cases" `Quick test_legality_clean_cases;
          QCheck_alcotest.to_alcotest prop_routed_output_certified;
        ] );
      ( "certification",
        [
          Alcotest.test_case "benchsuite outputs" `Slow
            test_benchsuite_outputs_certified;
          Alcotest.test_case "big96 cascade" `Slow test_big96_cascade_certified;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "after decompose" `Quick
            test_contract_after_decompose;
          Alcotest.test_case "after route" `Quick test_contract_after_route;
          Alcotest.test_case "after optimize" `Quick
            test_contract_after_optimize;
          Alcotest.test_case "enforce" `Quick test_contract_enforce;
          Alcotest.test_case "strict pipeline green" `Quick
            test_compile_strict_green;
          QCheck_alcotest.to_alcotest prop_compile_strict_random;
        ] );
    ]
