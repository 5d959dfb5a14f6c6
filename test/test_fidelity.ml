let check_bool = Alcotest.(check bool)

let cal = Calibration.synthetic Device.Ibm.ibmqx2

let test_synthetic_ranges () =
  for q = 0 to 4 do
    let e1 = Calibration.single_qubit_error cal q in
    check_bool "1q in range" true (e1 >= 0.0005 && e1 <= 0.002);
    let ro = Calibration.readout_error cal q in
    check_bool "readout in range" true (ro >= 0.01 && ro <= 0.06)
  done;
  List.iter
    (fun (c, t) ->
      let e = Calibration.cnot_error cal ~control:c ~target:t in
      check_bool "cnot in range" true (e >= 0.01 && e <= 0.05))
    (Device.couplings Device.Ibm.ibmqx2)

let test_deterministic () =
  let a = Calibration.synthetic ~seed:7 Device.Ibm.ibmqx2 in
  let b = Calibration.synthetic ~seed:7 Device.Ibm.ibmqx2 in
  let c = Calibration.synthetic ~seed:8 Device.Ibm.ibmqx2 in
  check_bool "same seed, same values" true
    (Calibration.single_qubit_error a 3 = Calibration.single_qubit_error b 3);
  check_bool "different seed, different somewhere" true
    (List.exists
       (fun q ->
         Calibration.single_qubit_error a q <> Calibration.single_qubit_error c q)
       [ 0; 1; 2; 3; 4 ])

let test_of_values () =
  let custom =
    Calibration.of_values Device.Ibm.ibmqx2 ~single:[ (0, 0.01) ]
      ~readout:[ (1, 0.2) ]
      ~cnot:[ ((0, 1), 0.08) ]
  in
  check_bool "single overridden" true
    (Calibration.single_qubit_error custom 0 = 0.01);
  check_bool "readout overridden" true (Calibration.readout_error custom 1 = 0.2);
  check_bool "cnot overridden" true
    (Calibration.cnot_error custom ~control:0 ~target:1 = 0.08);
  (match
     Calibration.of_values Device.Ibm.ibmqx2 ~single:[ (9, 0.1) ] ~readout:[]
       ~cnot:[]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted bad qubit");
  (match
     Calibration.of_values Device.Ibm.ibmqx2 ~single:[] ~readout:[]
       ~cnot:[ ((1, 0), 0.1) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted non-native coupling");
  match
    Calibration.of_values Device.Ibm.ibmqx2 ~single:[ (0, 1.5) ] ~readout:[]
      ~cnot:[]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted rate over 1"

let test_gate_error_reversal () =
  (* A reversed CNOT costs the native CNOT plus four H errors. *)
  let direct = Calibration.gate_error cal (Gate.Cnot { control = 0; target = 1 }) in
  let reversed = Calibration.gate_error cal (Gate.Cnot { control = 1; target = 0 }) in
  check_bool "reversal costs more" true (reversed > direct);
  match Calibration.gate_error cal (Gate.Cnot { control = 0; target = 3 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted unroutable CNOT"

let test_success_probability () =
  let c =
    Circuit.make ~n:5 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let p = Calibration.success_probability cal c in
  check_bool "probability in (0,1)" true (p > 0.0 && p < 1.0);
  let expected =
    (1.0 -. Calibration.single_qubit_error cal 0)
    *. (1.0 -. Calibration.cnot_error cal ~control:0 ~target:1)
  in
  check_bool "product form" true (abs_float (p -. expected) < 1e-12);
  check_bool "empty circuit certain" true
    (Calibration.success_probability cal (Circuit.empty 5) = 1.0)

let test_log_fidelity_cost () =
  let cost = Cost.Log_fidelity cal in
  let small = Circuit.make ~n:5 [ Gate.H 0 ] in
  let large =
    Circuit.make ~n:5
      [ Gate.H 0; Gate.Cnot { control = 0; target = 1 }; Gate.H 1 ]
  in
  check_bool "monotone in gates" true
    (Cost.evaluate cost small < Cost.evaluate cost large);
  (* Minimizing log-fidelity cost = maximizing success probability. *)
  let lhs = Cost.evaluate cost large in
  let rhs = -.log (Calibration.success_probability cal large) in
  check_bool "cost = -log success" true (abs_float (lhs -. rhs) < 1e-9)

let test_optimizer_with_fidelity_cost () =
  (* The optimizer accepts the fidelity cost and still cleans up: fewer
     gates means strictly higher success probability. *)
  let cost = Cost.Log_fidelity cal in
  let c =
    Circuit.make ~n:5
      [
        Gate.H 0; Gate.H 0; Gate.Cnot { control = 0; target = 1 };
        Gate.T 1; Gate.Tdg 1;
      ]
  in
  let optimized = Optimize.optimize ~device:Device.Ibm.ibmqx2 ~cost c in
  check_bool "improved success probability" true
    (Calibration.success_probability cal optimized
    > Calibration.success_probability cal c);
  check_bool "unitary preserved" true (Sim.equivalent ~up_to_phase:false c optimized)

let test_simulator_device_free () =
  let sim_cal = Calibration.synthetic (Device.simulator ~n_qubits:4) in
  check_bool "simulator CNOTs free" true
    (Calibration.gate_error sim_cal (Gate.Cnot { control = 3; target = 0 }) = 0.0)

let test_fidelity_aware_router () =
  (* The weighted router with calibration hop costs never does worse
     than hop-count CTR on success probability for a routing-heavy
     circuit. *)
  let device = Device.Ibm.ibmqx3 in
  let calibration = Calibration.synthetic device in
  let circuit =
    Circuit.make ~n:16
      [
        Gate.Cnot { control = 0; target = 8 };
        Gate.Cnot { control = 5; target = 10 };
        Gate.H 3;
        Gate.Cnot { control = 15; target = 6 };
      ]
  in
  let success router =
    let opts =
      {
        (Compiler.default_options ~device) with
        Compiler.router;
        Compiler.verification = Compiler.Skip;
      }
    in
    let r = Compiler.compile opts (Compiler.Quantum circuit) in
    Calibration.success_probability calibration r.Compiler.optimized
  in
  let base = success Compiler.Ctr in
  let weighted =
    success (Compiler.Weighted_ctr calibration)
  in
  check_bool "weighted never worse" true (weighted >= base *. 0.999)

let test_weighted_router_verifies () =
  let device = Device.Ibm.ibmqx5 in
  let calibration = Calibration.synthetic device in
  let circuit =
    Circuit.make ~n:16
      [ Gate.H 0; Gate.Cnot { control = 0; target = 9 }; Gate.T 9 ]
  in
  let opts =
    {
      (Compiler.default_options ~device) with
      Compiler.router = Compiler.Weighted_ctr calibration;
    }
  in
  let r = Compiler.compile opts (Compiler.Quantum circuit) in
  check_bool "verified with weighted router" true
    (Compiler.verified r.Compiler.verification)

let prop_success_probability_bounds =
  QCheck2.Test.make ~name:"success probability in (0,1]" ~count:50
    (Testutil.gen_native_circuit ~max_gates:15 4)
    (fun c ->
      (* Map first so every CNOT is executable. *)
      let d = Device.Ibm.ibmqx2 in
      let routed = Route.route_circuit d c in
      let p = Calibration.success_probability cal routed in
      p > 0.0 && p <= 1.0)

let () =
  Alcotest.run "fidelity"
    [
      ( "calibration",
        [
          Alcotest.test_case "synthetic ranges" `Quick test_synthetic_ranges;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "of_values" `Quick test_of_values;
          Alcotest.test_case "reversal error" `Quick test_gate_error_reversal;
          Alcotest.test_case "simulator free" `Quick test_simulator_device_free;
        ] );
      ( "cost",
        [
          Alcotest.test_case "success probability" `Quick test_success_probability;
          Alcotest.test_case "log fidelity" `Quick test_log_fidelity_cost;
          Alcotest.test_case "drives optimizer" `Quick
            test_optimizer_with_fidelity_cost;
          Alcotest.test_case "fidelity-aware router" `Quick
            test_fidelity_aware_router;
          Alcotest.test_case "weighted router verifies" `Quick
            test_weighted_router_verifies;
          QCheck_alcotest.to_alcotest prop_success_probability_bounds;
        ] );
    ]
