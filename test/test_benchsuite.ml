let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- single-target gates (Table 3 inputs) --- *)

let test_hex_decode () =
  check_bool "#1 is 2-var AND-of-pattern" true
    (Benchsuite.Single_target.table_of_hex "1"
    = [| false; false; false; true |]);
  check_bool "#3" true
    (Benchsuite.Single_target.table_of_hex "3" = [| false; false; true; true |]);
  check_int "#000f length" 16
    (Array.length (Benchsuite.Single_target.table_of_hex "000f"))

let test_single_target_inventory () =
  check_int "24 benchmarks" 24 (List.length Benchsuite.Single_target.all);
  let b = Benchsuite.Single_target.find "033f" in
  check_int "033f vars" 4 b.Benchsuite.Single_target.n_vars;
  check_int "033f paper qubits" 5 b.Benchsuite.Single_target.paper_qubits

let test_single_target_circuits_native () =
  List.iter
    (fun b ->
      let c = Benchsuite.Single_target.circuit b in
      check_bool
        (b.Benchsuite.Single_target.name ^ " native")
        true (Circuit.uses_only_native c))
    Benchsuite.Single_target.all

let test_single_target_semantics () =
  (* Each circuit must compute its control function onto the target
     wire (wire n_vars), as a classical function of the input wires.
     The circuit contains H/T gates, so check via dense simulation for
     small entries. *)
  List.iter
    (fun name ->
      let b = Benchsuite.Single_target.find name in
      let c = Benchsuite.Single_target.circuit b in
      let n = Circuit.n_qubits c in
      let n_vars = b.Benchsuite.Single_target.n_vars in
      let ok = ref true in
      for k = 0 to (1 lsl n_vars) - 1 do
        (* Build |inputs, 0...0> and check the output amplitude. *)
        let idx = k lsl (n - n_vars) in
        let out = Sim.run c (Sim.basis_state ~n idx) in
        let expected_target = b.Benchsuite.Single_target.table.(k) in
        let expected_idx =
          if expected_target then idx lor (1 lsl (n - n_vars - 1)) else idx
        in
        if not (Mathkit.Cx.is_one ~eps:1e-7 out.(expected_idx)) then ok := false
      done;
      check_bool (name ^ " computes its table") true !ok)
    [ "1"; "3"; "03"; "0f"; "17" ]

let test_single_target_compiles () =
  (* A couple of entries through the full pipeline. *)
  List.iter
    (fun (name, device) ->
      let b = Benchsuite.Single_target.find name in
      let c = Benchsuite.Single_target.circuit b in
      let r =
        Compiler.compile
          (Compiler.default_options ~device)
          (Compiler.Quantum c)
      in
      check_bool (name ^ " verified") true
        (r.Compiler.verification = Compiler.Verified);
      check_bool (name ^ " expanded on real device") true
        (Circuit.gate_count r.Compiler.unoptimized >= Circuit.gate_count c))
    [ ("1", Device.Ibm.ibmqx2); ("03", Device.Ibm.ibmqx4); ("000f", Device.Ibm.ibmqx5) ]

(* --- revlib cascades (Table 5 inputs) --- *)

let test_revlib_inventory () =
  check_int "5 benchmarks" 5 (List.length Benchsuite.Revlib_cascades.all);
  List.iter
    (fun b ->
      let c = Benchsuite.Revlib_cascades.circuit b in
      check_int
        (b.Benchsuite.Revlib_cascades.name ^ " qubits")
        b.Benchsuite.Revlib_cascades.paper_qubits (Circuit.n_qubits c);
      check_int
        (b.Benchsuite.Revlib_cascades.name ^ " gate count")
        b.Benchsuite.Revlib_cascades.paper_gate_count (Circuit.gate_count c);
      check_bool
        (b.Benchsuite.Revlib_cascades.name ^ " reversible")
        true (Sim.is_classical c))
    Benchsuite.Revlib_cascades.all

let test_revlib_largest_gates () =
  let largest name =
    let c = Benchsuite.Revlib_cascades.circuit (Benchsuite.Revlib_cascades.find name) in
    Circuit.fold (fun widest g -> max widest (Gate.arity g)) 0 c
  in
  check_int "3_17_14 largest toffoli" 3 (largest "3_17_14");
  check_int "fred6 largest toffoli" 3 (largest "fred6");
  check_int "4gt12 largest T5" 5 (largest "4gt12-v0_88");
  check_int "4gt13 largest T4" 4 (largest "4gt13-v1_93")

let test_revlib_t5_na_on_5_qubit_devices () =
  (* The paper prints N/A for 4gt12-v0_88 on the 5-qubit machines: the
     T5 decomposition needs a borrowable qubit the device cannot
     provide.  Our pipeline reproduces that exactly. *)
  let b = Benchsuite.Revlib_cascades.find "4gt12-v0_88" in
  let c = Benchsuite.Revlib_cascades.circuit b in
  (match
     Compiler.compile
       (Compiler.default_options ~device:Device.Ibm.ibmqx2)
       (Compiler.Quantum c)
   with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected N/A (Compile_error) on ibmqx2");
  let r =
    Compiler.compile
      (Compiler.default_options ~device:Device.Ibm.ibmqx5)
      (Compiler.Quantum c)
  in
  check_bool "compiles on ibmqx5" true
    (r.Compiler.verification = Compiler.Verified)

let test_revlib_compile_small () =
  List.iter
    (fun name ->
      let b = Benchsuite.Revlib_cascades.find name in
      let c = Benchsuite.Revlib_cascades.circuit b in
      let r =
        Compiler.compile
          (Compiler.default_options ~device:Device.Ibm.ibmqx2)
          (Compiler.Quantum c)
      in
      check_bool (name ^ " verified") true
        (r.Compiler.verification = Compiler.Verified))
    [ "3_17_14"; "fred6"; "4_49_17" ]

(* --- 96-qubit cascades (Table 7) --- *)

let test_big_inventory () =
  check_int "5 benchmarks" 5 (List.length Benchsuite.Big_cascades.all);
  List.iter
    (fun b ->
      let c = Benchsuite.Big_cascades.circuit b in
      check_int (b.Benchsuite.Big_cascades.name ^ " gates") 4
        (Circuit.gate_count c);
      check_int (b.Benchsuite.Big_cascades.name ^ " width") 96
        (Circuit.n_qubits c))
    Benchsuite.Big_cascades.all

let test_big_table7_spec () =
  let b = Benchsuite.Big_cascades.find "T6_b" in
  check_bool "first gate controls" true
    (List.hd b.Benchsuite.Big_cascades.gates = ([ 1; 2; 3; 4; 5 ], 25));
  check_bool "last gate controls" true
    (List.nth b.Benchsuite.Big_cascades.gates 3 = ([ 61; 62; 63; 64; 65 ], 85));
  let b10 = Benchsuite.Big_cascades.find "T10_b" in
  check_bool "T10 gate 1" true
    (List.hd b10.Benchsuite.Big_cascades.gates
    = ([ 1; 2; 3; 4; 5; 6; 7; 8; 9 ], 25))

let test_big_gates_share_qubits () =
  (* Table 7 note: consecutive gates share at least one qubit. *)
  List.iter
    (fun b ->
      let rec pairs = function
        | (c1, t1) :: ((c2, _) :: _ as rest) ->
          check_bool
            (b.Benchsuite.Big_cascades.name ^ " shares a qubit")
            true
            (List.exists (fun q -> List.mem q c2) (t1 :: c1));
          pairs rest
        | [ _ ] | [] -> ()
      in
      pairs b.Benchsuite.Big_cascades.gates)
    Benchsuite.Big_cascades.all

(* Each cascade compiled to big96 with verification skipped, as the
   Table 8 synthesis workload compiles it: the optimized circuit's gate
   count and the MD5 of its gate list, one gate per line.  Any change
   to the pipeline's output on the paper's headline table shows here. *)
let table8_outputs =
  [
    ("T6_b", 18_976, "c941b7f12e2e0bb77de4349039b72439");
    ("T7_b", 22_883, "9a45b0cae49969135b1bc61c900d73ec");
    ("T8_b", 27_941, "c1f295c712cea72af93d15fa9ce6b0f0");
    ("T9_b", 31_588, "2db4b1957c6238ef6882355335e5c78c");
    ("T10_b", 37_089, "ce3d7e0ca0933dc273bcfeaecd20e7d3");
  ]

let test_big_table8_outputs () =
  let device = Device.Ibm.big96 in
  let options =
    { (Compiler.default_options ~device) with Compiler.verification = Compiler.Skip }
  in
  List.iter
    (fun (name, gates, digest) ->
      let b = Benchsuite.Big_cascades.find name in
      let r =
        Compiler.compile options (Compiler.Quantum (Benchsuite.Big_cascades.circuit b))
      in
      let out = r.Compiler.optimized in
      let listing =
        String.concat "\n" (List.map Gate.to_string (Circuit.gates out))
      in
      check_int (name ^ " optimized gates") gates (Circuit.gate_count out);
      Alcotest.(check string)
        (name ^ " gate list digest") digest
        (Digest.to_hex (Digest.string listing)))
    table8_outputs

(* --- tabulate --- *)

let test_tabulate () =
  let s =
    Benchsuite.Tabulate.render ~title:"Demo" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333" ] ]
  in
  check_bool "contains title" true (String.length s > 10);
  check_bool "pads ragged rows" true
    (List.length (String.split_on_char '\n' s) >= 5)

let () =
  Alcotest.run "benchsuite"
    [
      ( "single_target",
        [
          Alcotest.test_case "hex decode" `Quick test_hex_decode;
          Alcotest.test_case "inventory" `Quick test_single_target_inventory;
          Alcotest.test_case "native circuits" `Quick
            test_single_target_circuits_native;
          Alcotest.test_case "semantics" `Quick test_single_target_semantics;
          Alcotest.test_case "compiles" `Quick test_single_target_compiles;
        ] );
      ( "revlib",
        [
          Alcotest.test_case "inventory" `Quick test_revlib_inventory;
          Alcotest.test_case "largest gates" `Quick test_revlib_largest_gates;
          Alcotest.test_case "T5 N/A on 5-qubit devices" `Quick
            test_revlib_t5_na_on_5_qubit_devices;
          Alcotest.test_case "compile small" `Quick test_revlib_compile_small;
        ] );
      ( "big96",
        [
          Alcotest.test_case "inventory" `Quick test_big_inventory;
          Alcotest.test_case "table7 spec" `Quick test_big_table7_spec;
          Alcotest.test_case "shared qubits" `Quick test_big_gates_share_qubits;
          Alcotest.test_case "table8 outputs" `Quick test_big_table8_outputs;
        ] );
      ("tabulate", [ Alcotest.test_case "render" `Quick test_tabulate ]);
    ]
