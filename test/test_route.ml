let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_fig5_path () =
  (* Paper Fig. 5: CNOT with q5 control, q10 target on ibmqx3 routes via
     two SWAPs: q5 <-> q12 then q12 <-> q11, landing q11 coupled with
     q10. *)
  let path = Route.ctr_path Device.Ibm.ibmqx3 ~control:5 ~target:10 in
  check_bool "path q5 -> q12 -> q11" true (path = [ 5; 12; 11 ])

let test_path_trivial_when_coupled () =
  (* q0 -> q1 is native on ibmqx2: no SWAPs. *)
  check_bool "coupled pair" true
    (Route.ctr_path Device.Ibm.ibmqx2 ~control:0 ~target:1 = [ 0 ]);
  (* q1 -> q0 is only coupled in reverse, still distance zero. *)
  check_bool "reverse-coupled pair" true
    (Route.ctr_path Device.Ibm.ibmqx2 ~control:1 ~target:0 = [ 1 ])

let test_path_errors () =
  Alcotest.check_raises "control = target"
    (Invalid_argument "Route.ctr_path: control = target") (fun () ->
      ignore (Route.ctr_path Device.Ibm.ibmqx2 ~control:2 ~target:2));
  Alcotest.check_raises "target outside device"
    (Invalid_argument "Route.ctr_path: qubit outside device") (fun () ->
      ignore (Route.ctr_path Device.Ibm.ibmqx2 ~control:0 ~target:7));
  Alcotest.check_raises "negative control"
    (Invalid_argument "Route.ctr_path: qubit outside device") (fun () ->
      ignore (Route.ctr_path Device.Ibm.ibmqx2 ~control:(-1) ~target:2));
  Alcotest.check_raises "weighted variant checks range too"
    (Invalid_argument "Route.ctr_path_weighted: qubit outside device")
    (fun () ->
      ignore
        (Route.ctr_path_weighted Device.Ibm.ibmqx2
           ~weight:(fun _ _ -> 1.0)
           ~control:0 ~target:7));
  let disconnected =
    Device.make ~name:"disc" ~n_qubits:4 [ (0, 1); (2, 3) ]
  in
  (match Route.ctr_path disconnected ~control:0 ~target:3 with
  | exception Route.Unroutable _ -> ()
  | _ -> Alcotest.fail "expected Unroutable")

let test_route_cnot_direct () =
  let d = Device.Ibm.ibmqx2 in
  let route control target =
    Circuit.gates
      (Route.route_circuit d (Circuit.make ~n:5 [ Gate.Cnot { control; target } ]))
  in
  check_bool "native direction kept" true
    (route 0 1 = [ Gate.Cnot { control = 0; target = 1 } ]);
  (* Reverse direction: Fig. 6, five gates. *)
  let reversed = route 1 0 in
  check_int "reversal gate count" 5 (List.length reversed);
  check_bool "reversal legal" true
    (Lint.is_device_legal d (Circuit.make ~n:5 reversed))

let test_route_cnot_fig5_equivalence () =
  (* The Fig. 5 example: routed circuit is equivalent to the bare CNOT
     and uses only legal placements.  16 qubits: verified by QMDD. *)
  let d = Device.Ibm.ibmqx3 in
  let original =
    Circuit.make ~n:16 [ Gate.Cnot { control = 5; target = 10 } ]
  in
  let routed = Route.route_circuit d original in
  check_bool "legal placements" true (Lint.is_device_legal d routed);
  check_bool "QMDD equivalent" true
    (Qmdd.equivalent ~up_to_phase:false original routed)

let test_route_circuit_widens () =
  let d = Device.Ibm.ibmqx2 in
  let c = Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ] in
  let routed = Route.route_circuit d c in
  check_int "device width" 5 (Circuit.n_qubits routed);
  check_bool "legal" true (Lint.is_device_legal d routed)

let test_route_circuit_rejects_non_native () =
  let d = Device.Ibm.ibmqx2 in
  let c = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  (match Route.route_circuit d c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of Toffoli");
  let too_big = Circuit.empty 6 in
  (match Route.route_circuit d too_big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of oversized circuit");
  (* The routers share one walk, and each names itself in its errors. *)
  List.iter
    (fun (who, route) ->
      Alcotest.check_raises (who ^ ": non-native")
        (Invalid_argument
           (Printf.sprintf "Route.%s: non-native gate Toffoli q0, q1, q2" who))
        (fun () -> ignore (route d c));
      Alcotest.check_raises (who ^ ": too wide")
        (Invalid_argument
           (Printf.sprintf
              "Route.%s: circuit needs 6 qubits but ibmqx2 has 5" who))
        (fun () -> ignore (route d too_big)))
    [
      ("route_circuit", fun d c -> Route.route_circuit_swaps d c);
      ("route_circuit_tracking", fun d c -> Route.route_circuit_tracking d c);
    ]

let test_simulator_passthrough () =
  let d = Device.simulator ~n_qubits:8 in
  let c = Circuit.make ~n:8 [ Gate.Cnot { control = 7; target = 0 } ] in
  let routed = Route.route_circuit d c in
  check_int "unchanged" 1 (Circuit.gate_count routed)

let test_expansion_tracks_complexity () =
  (* Devices with lower coupling complexity need at least as many gates
     for a hard CNOT, one of the qualitative claims of Section 5. *)
  let cnot_cost d =
    let c =
      Route.route_circuit d
        (Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 4 } ])
    in
    Circuit.gate_count c
  in
  let qx2 = cnot_cost Device.Ibm.ibmqx2 in
  let qx3 = cnot_cost Device.Ibm.ibmqx3 in
  check_bool "sparser ibmqx3 costs more" true (qx3 >= qx2)

let test_swap_level_routing () =
  let d = Device.Ibm.ibmqx3 in
  let c = Circuit.make ~n:16 [ Gate.Cnot { control = 5; target = 10 } ] in
  let swap_level = Route.route_circuit_swaps d c in
  (* Fig. 5: two SWAPs out, CNOT, two SWAPs back. *)
  let swaps_ok =
    Circuit.fold
      (fun ok g ->
        ok
        &&
        match g with
        | Gate.Swap (a, b) -> Device.coupled d a b
        | Gate.Cnot { control; target } -> Device.allows_cnot d ~control ~target
        | _ -> true)
      true swap_level
  in
  check_bool "swaps on coupled pairs only" true swaps_ok;
  let n_swaps =
    Circuit.fold
      (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
      0 swap_level
  in
  check_int "4 swaps (2 out, 2 back)" 4 n_swaps;
  let expanded = Route.expand_swaps d swap_level in
  check_bool "legal" true (Lint.is_device_legal d expanded)

let prop_swap_level_equivalent =
  QCheck2.Test.make ~name:"swap-level routing equivalent (simulated)" ~count:20
    (Testutil.gen_native_circuit ~max_gates:5 4)
    (fun c ->
      let d = Device.Ibm.ibmqx2 in
      let swap_level = Route.route_circuit_swaps d c in
      let widened = Circuit.widen c 5 in
      Sim.equivalent ~up_to_phase:false widened swap_level
      && Sim.equivalent ~up_to_phase:false widened (Route.expand_swaps d swap_level))

let test_tracking_router_basics () =
  let d = Device.Ibm.ibmqx3 in
  let c =
    Circuit.make ~n:16
      [
        Gate.Cnot { control = 5; target = 10 };
        Gate.Cnot { control = 5; target = 10 };
      ]
  in
  let routed = Route.route_circuit_tracking d c in
  let swaps_legal =
    Circuit.fold
      (fun ok g ->
        ok
        &&
        match g with
        | Gate.Swap (a, b) -> Device.coupled d a b
        | Gate.Cnot { control; target } -> Device.allows_cnot d ~control ~target
        | _ -> true)
      true routed
  in
  check_bool "legal placements" true swaps_legal;
  (* Two identical far CNOTs: the tracking router pays the SWAP path
     once (plus the final restore), the CTR router pays it twice in
     each direction. *)
  let ctr = Route.route_circuit_swaps d c in
  let count_swaps cir =
    Circuit.fold
      (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
      0 cir
  in
  check_bool "tracking uses fewer swaps" true
    (count_swaps routed < count_swaps ctr);
  check_bool "equivalent" true (Qmdd.equivalent ~up_to_phase:false ctr routed)

let prop_tracking_router_equivalent =
  QCheck2.Test.make ~name:"tracking router: legal and equivalent" ~count:20
    (Testutil.gen_native_circuit ~max_gates:6 4)
    (fun c ->
      let d = Device.Ibm.ibmqx2 in
      let routed = Route.route_circuit_tracking d c in
      let widened = Circuit.widen c 5 in
      Sim.equivalent ~up_to_phase:false widened routed
      && Lint.is_device_legal d (Route.expand_swaps d routed))

let test_weighted_path_prefers_cheap () =
  (* Diamond: 0-1-4 (short, expensive) vs 0-2-3-4 (long, cheap); the
     CNOT goal is q5, only coupled to q4. *)
  let d =
    Device.make ~name:"diamond" ~n_qubits:6
      [ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4); (4, 5) ]
  in
  let expensive_weight a b =
    if (a = 0 && b = 1) || (a = 1 && b = 0) || (a = 1 && b = 4) || (a = 4 && b = 1)
    then 10.0
    else 1.0
  in
  let hops = Route.ctr_path d ~control:0 ~target:5 in
  check_bool "hop-count path takes the short arm" true (hops = [ 0; 1; 4 ]);
  let weighted =
    Route.ctr_path_weighted d ~weight:expensive_weight ~control:0 ~target:5
  in
  check_bool "weighted path avoids the expensive arm" true
    (weighted = [ 0; 2; 3; 4 ]);
  (* With uniform weights both agree on length. *)
  let uniform = Route.ctr_path_weighted d ~weight:(fun _ _ -> 1.0) ~control:0 ~target:5 in
  check_bool "uniform weights = shortest" true
    (List.length uniform = List.length hops)

let test_weighted_routing_equivalent () =
  let d = Device.Ibm.ibmqx3 in
  let cal_weight a b = 1.0 +. (0.1 *. float_of_int ((a + b) mod 3)) in
  let c = Circuit.make ~n:16 [ Gate.Cnot { control = 5; target = 10 } ] in
  let routed = Route.route_circuit_swaps ~weight:cal_weight d c in
  let expanded = Route.expand_swaps d routed in
  check_bool "legal" true (Lint.is_device_legal d expanded);
  check_bool "equivalent" true (Qmdd.equivalent ~up_to_phase:false c expanded)

(* Budget semantic: budget = SWAP gates actually emitted, identical
   across the budgeted routers.  On a 5-qubit line, CNOT q0,q3 reroutes
   over path [0; 1; 2] (2 hops): the CTR and weighted routers emit 2
   forward + 2 return SWAPs, the tracking router 2 forward + 2 restore
   SWAPs — all three exhaust a budget of 3 and exactly fit a budget
   of 4. *)
let line5 =
  Device.make ~name:"line5" ~n_qubits:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]

let count_swaps cir =
  Circuit.fold
    (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
    0 cir

let budgeted_routers d c =
  [
    ("ctr", fun stats budget -> Route.route_circuit_swaps ~stats ?swap_budget:budget d c);
    ( "weighted",
      fun stats budget ->
        Route.route_circuit_swaps ~stats ?swap_budget:budget
          ~weight:(fun _ _ -> 1.0)
          d c );
    ( "tracking",
      fun stats budget ->
        Route.route_circuit_tracking ~stats ?swap_budget:budget d c );
  ]

let test_swap_budget_exhaustion_points () =
  let c = Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 3 } ] in
  List.iter
    (fun (name, route) ->
      (* Budget 3: the 4-swap reroute does not fit — the CNOT stays as
         written and nothing is spent. *)
      let s3 = Route.new_stats () in
      let r3 = route s3 (Some 3) in
      check_int (name ^ ": budget 3 leaves the cnot unrouted") 1
        s3.Route.unrouted_cnots;
      check_int (name ^ ": budget 3 emits no swaps") 0 (count_swaps r3);
      (* Budget 4: exactly fits, and the stat agrees with the budget. *)
      let s4 = Route.new_stats () in
      let r4 = route s4 (Some 4) in
      check_int (name ^ ": budget 4 routes") 0 s4.Route.unrouted_cnots;
      check_int (name ^ ": budget 4 emits 4 swaps") 4 (count_swaps r4);
      check_int (name ^ ": swaps_inserted = emitted swaps") 4
        s4.Route.swaps_inserted)
    (budgeted_routers line5 c)

let prop_budgeted_routers_preserve_unitary =
  (* Whatever the budget, routing never changes the computed unitary:
     an exhausted reroute leaves its CNOT as written.  Degraded outputs
     are checked for exact accounting — every coupling-illegal CNOT in
     the output is one the budget refused — and clean outputs must be
     fully device-legal after SWAP expansion. *)
  QCheck2.Test.make
    ~name:"budgeted routers: unitary preserved, accounting exact" ~count:12
    QCheck2.Gen.(
      pair (int_bound 3) (Testutil.gen_native_circuit ~max_gates:8 6))
    (fun (budget_idx, c) ->
      let d =
        Device.make ~name:"line6" ~n_qubits:6
          [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
      in
      let budget = List.nth [ Some 0; Some 1; Some 3; None ] budget_idx in
      let widened = Circuit.widen c 6 in
      List.for_all
        (fun (_name, route) ->
          let stats = Route.new_stats () in
          let routed = route stats budget in
          let illegal_cnots =
            Circuit.fold
              (fun acc g ->
                match g with
                | Gate.Cnot { control; target }
                  when not (Device.coupled d control target) ->
                  acc + 1
                | _ -> acc)
              0 routed
          in
          Sim.equivalent ~up_to_phase:false widened routed
          && illegal_cnots = stats.Route.unrouted_cnots
          && (match budget with
             | Some b -> stats.Route.swaps_inserted <= b
             | None -> true)
          && (stats.Route.unrouted_cnots > 0
             || Lint.is_device_legal d (Route.expand_swaps d routed)))
        (budgeted_routers d c))

(* Shared fuzz-backed device generator (chains, rings, stars, spanning
   trees): connected, and at least 4 qubits so the 4-qubit circuits
   below always fit. *)
let gen_device = Testutil.gen_device ~min_qubits:4 ~max_qubits:6 ()

let prop_routing_legal_and_equivalent =
  QCheck2.Test.make ~name:"routing: legal placements, unitary preserved"
    ~count:30
    QCheck2.Gen.(pair gen_device (Testutil.gen_native_circuit ~max_gates:6 4))
    (fun (d, c) ->
      let routed = Route.route_circuit d c in
      let widened = Circuit.widen c (Device.n_qubits d) in
      Lint.is_device_legal d routed
      && Qmdd.equivalent ~up_to_phase:false widened routed)

let prop_ctr_path_valid =
  QCheck2.Test.make ~name:"ctr paths hop along couplings" ~count:50
    QCheck2.Gen.(
      pair gen_device (pair (int_bound 100) (int_bound 100)))
    (fun (d, (a, b)) ->
      let n = Device.n_qubits d in
      let control = a mod n and target = b mod n in
      QCheck2.assume (control <> target);
      let path = Route.ctr_path d ~control ~target in
      let rec hops_ok = function
        | x :: (y :: _ as rest) -> Device.coupled d x y && hops_ok rest
        | [ last ] -> Device.coupled d last target
        | [] -> false
      in
      List.hd path = control
      && (not (List.mem target path))
      && hops_ok path)

let () =
  Alcotest.run "route"
    [
      ( "ctr",
        [
          Alcotest.test_case "fig5 path" `Quick test_fig5_path;
          Alcotest.test_case "trivial paths" `Quick test_path_trivial_when_coupled;
          Alcotest.test_case "errors" `Quick test_path_errors;
          QCheck_alcotest.to_alcotest prop_ctr_path_valid;
        ] );
      ( "cnot routing",
        [
          Alcotest.test_case "direct and reversed" `Quick test_route_cnot_direct;
          Alcotest.test_case "fig5 equivalence" `Quick
            test_route_cnot_fig5_equivalence;
        ] );
      ( "circuit routing",
        [
          Alcotest.test_case "widening" `Quick test_route_circuit_widens;
          Alcotest.test_case "rejections" `Quick
            test_route_circuit_rejects_non_native;
          Alcotest.test_case "simulator passthrough" `Quick
            test_simulator_passthrough;
          Alcotest.test_case "complexity correlation" `Quick
            test_expansion_tracks_complexity;
          Alcotest.test_case "swap-level routing" `Quick test_swap_level_routing;
          Alcotest.test_case "tracking router" `Quick test_tracking_router_basics;
          Alcotest.test_case "weighted path" `Quick test_weighted_path_prefers_cheap;
          Alcotest.test_case "weighted routing" `Quick
            test_weighted_routing_equivalent;
          QCheck_alcotest.to_alcotest prop_routing_legal_and_equivalent;
          QCheck_alcotest.to_alcotest prop_swap_level_equivalent;
          QCheck_alcotest.to_alcotest prop_tracking_router_equivalent;
        ] );
      ( "swap budgets",
        [
          Alcotest.test_case "exhaustion points" `Quick
            test_swap_budget_exhaustion_points;
          QCheck_alcotest.to_alcotest prop_budgeted_routers_preserve_unitary;
        ] );
    ]
