let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let line n =
  Device.make ~name:"line" ~n_qubits:n
    (List.init (n - 1) (fun i -> (i, i + 1)))

let test_distances () =
  let d = line 5 in
  let dist = Place.distances d in
  check_int "adjacent" 1 dist.(0).(1);
  check_int "ends" 4 dist.(0).(4);
  check_int "self" 0 dist.(2).(2);
  let disconnected = Device.make ~name:"disc" ~n_qubits:4 [ (0, 1); (2, 3) ] in
  let dd = Place.distances disconnected in
  check_bool "unreachable marked" true (dd.(0).(3) > 1000)

let test_interaction_weights () =
  let c =
    Circuit.make ~n:4
      [
        Gate.Cnot { control = 0; target = 3 };
        Gate.Cnot { control = 3; target = 0 };
        Gate.Cnot { control = 1; target = 2 };
        Gate.H 0;
      ]
  in
  let w = Place.interaction_weights c in
  check_bool "pair (0,3) weight 2" true (List.assoc (0, 3) w = 2);
  check_bool "pair (1,2) weight 1" true (List.assoc (1, 2) w = 1);
  check_bool "sorted heaviest first" true (fst (List.hd w) = (0, 3))

let test_estimate () =
  let d = line 5 in
  (* CNOT between line ends: distance 4 => 3 swap hops. *)
  let c = Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 4 } ] in
  check_int "identity estimate" 3 (Place.estimate d c (Place.identity d));
  (* Moving them adjacent zeroes the estimate. *)
  let a = [| 0; 4; 2; 3; 1 |] in
  check_int "adjacent estimate" 0 (Place.estimate d c a)

let test_choose_improves_line () =
  let d = line 8 in
  (* Logical 0 talks to logical 7 a lot; identity placement is the
     worst possible on a line. *)
  let c =
    Circuit.make ~n:8
      (List.init 6 (fun _ -> Gate.Cnot { control = 0; target = 7 }))
  in
  let a = Place.choose d c in
  check_bool "valid permutation" true (Place.is_valid d a);
  check_bool "strictly better than identity" true
    (Place.estimate d c a < Place.estimate d c (Place.identity d));
  check_int "optimal: adjacent" 0 (Place.estimate d c a)

let test_choose_identity_when_no_cnots () =
  let d = line 4 in
  let c = Circuit.make ~n:4 [ Gate.H 0; Gate.T 3 ] in
  check_bool "identity for 1q circuits" true
    (Place.choose d c = Place.identity d)

let test_apply () =
  let a = [| 2; 0; 1 |] in
  let c = Circuit.make ~n:3 [ Gate.Cnot { control = 0; target = 1 } ] in
  let placed = Place.apply a c in
  check_bool "renamed" true
    (Circuit.gates placed = [ Gate.Cnot { control = 2; target = 0 } ]);
  (match Place.apply [| 0; 0; 1 |] c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted non-permutation");
  match Place.apply [| 0 |] c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted too-narrow assignment"

let test_compiler_with_placement () =
  (* End-to-end: placement on, verification still passes (against the
     relabelled reference), and the output is legal. *)
  let d = line 6 in
  let c =
    Circuit.make ~n:4
      [
        Gate.H 0;
        Gate.Cnot { control = 0; target = 3 };
        Gate.Cnot { control = 0; target = 3 };
        Gate.Toffoli { c1 = 0; c2 = 3; target = 1 };
      ]
  in
  let opts =
    { (Compiler.default_options ~device:d) with Compiler.use_placement = true }
  in
  let r = Compiler.compile opts (Compiler.Quantum c) in
  check_bool "verified" true (r.Compiler.verification = Compiler.Verified);
  check_bool "legal" true (Lint.is_device_legal d r.Compiler.optimized);
  match r.Compiler.placement with
  | None -> Alcotest.fail "expected a recorded placement"
  | Some a -> check_bool "recorded placement valid" true (Place.is_valid d a)

let test_placement_reduces_cost () =
  (* A circuit whose hot pair is far apart under identity: placement
     should never hurt and usually helps. *)
  let d = line 8 in
  let c =
    Circuit.make ~n:8
      (List.concat
         (List.init 5 (fun _ ->
              [
                Gate.Cnot { control = 0; target = 7 };
                Gate.Cnot { control = 7; target = 0 };
              ])))
  in
  let compile placement =
    let opts =
      {
        (Compiler.default_options ~device:d) with
        Compiler.use_placement = placement;
        Compiler.verification = Compiler.Skip;
      }
    in
    (Compiler.compile opts (Compiler.Quantum c)).Compiler.optimized_cost
  in
  check_bool "placement not worse" true (compile true <= compile false)

let prop_choose_valid =
  QCheck2.Test.make ~name:"choose returns a valid permutation" ~count:30
    (Testutil.gen_native_circuit ~max_gates:10 5)
    (fun c ->
      let d = Device.Ibm.ibmqx5 in
      Place.is_valid d (Place.choose d c))

let prop_choose_never_worse =
  QCheck2.Test.make ~name:"choose estimate <= identity estimate" ~count:30
    (Testutil.gen_native_circuit ~max_gates:10 5)
    (fun c ->
      let d = Device.Ibm.ibmq_16 in
      Place.estimate d c (Place.choose d c)
      <= Place.estimate d c (Place.identity d))

let prop_placed_compile_verifies =
  QCheck2.Test.make ~name:"placement-enabled compiles verify" ~count:10
    (Testutil.gen_native_circuit ~max_gates:6 4)
    (fun c ->
      let opts =
        {
          (Compiler.default_options ~device:Device.Ibm.ibmqx4) with
          Compiler.use_placement = true;
        }
      in
      let r = Compiler.compile opts (Compiler.Quantum c) in
      r.Compiler.verification = Compiler.Verified)

let () =
  Alcotest.run "place"
    [
      ( "primitives",
        [
          Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "interaction weights" `Quick test_interaction_weights;
          Alcotest.test_case "estimate" `Quick test_estimate;
          Alcotest.test_case "apply" `Quick test_apply;
        ] );
      ( "search",
        [
          Alcotest.test_case "improves on a line" `Quick test_choose_improves_line;
          Alcotest.test_case "identity fallback" `Quick
            test_choose_identity_when_no_cnots;
          QCheck_alcotest.to_alcotest prop_choose_valid;
          QCheck_alcotest.to_alcotest prop_choose_never_worse;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end-to-end verified" `Quick
            test_compiler_with_placement;
          Alcotest.test_case "cost not worse" `Quick test_placement_reduces_cost;
          QCheck_alcotest.to_alcotest prop_placed_compile_verifies;
        ] );
    ]
