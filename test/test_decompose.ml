let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let exact_equiv a b = Sim.equivalent ~up_to_phase:false a b

let test_cnot_reverse () =
  (* Paper Fig. 6: CNOT(c,t) = (H c)(H t) CNOT(t,c) (H c)(H t). *)
  let original = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  let reversed = Circuit.make ~n:2 (Decompose.cnot_reverse ~control:0 ~target:1) in
  check_bool "fig6 identity" true (exact_equiv original reversed);
  check_int "5 gates" 5 (Circuit.gate_count reversed)

let test_swap_unrestricted () =
  (* Paper Fig. 3: SWAP = 3 CNOTs. *)
  let swap = Circuit.make ~n:2 [ Gate.Swap (0, 1) ] in
  let cnots = Circuit.make ~n:2 (Decompose.swap_as_cnots 0 1) in
  check_bool "fig3 identity" true (exact_equiv swap cnots);
  check_int "3 gates" 3 (Circuit.gate_count cnots)

let test_swap_unidirectional () =
  (* With only the 0 -> 1 direction available, the middle CNOT needs a
     Fig. 6 reversal: 7 gates max as stated in Section 4. *)
  let allows ~control ~target = control = 0 && target = 1 in
  let gates = Decompose.swap_as_cnots ~allows 0 1 in
  let c = Circuit.make ~n:2 gates in
  check_int "7 gates (3 CNOT + 4 H)" 7 (List.length gates);
  check_int "3 CNOTs" 3 (Circuit.cnot_count c);
  check_bool "all CNOTs legal" true
    (Circuit.fold
       (fun ok g ->
         ok
         &&
         match g with
         | Gate.Cnot { control; target } -> allows ~control ~target
         | _ -> true)
       true c);
  check_bool "still a SWAP" true
    (exact_equiv (Circuit.make ~n:2 [ Gate.Swap (0, 1) ]) c)

let test_swap_uncoupled_rejected () =
  let allows ~control:_ ~target:_ = false in
  match Decompose.swap_as_cnots ~allows 0 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection for uncoupled swap"

let test_toffoli_clifford_t () =
  let original = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  let gates = Decompose.toffoli_to_clifford_t ~c1:0 ~c2:1 ~target:2 in
  let lowered = Circuit.make ~n:3 gates in
  check_bool "exact decomposition" true (exact_equiv original lowered);
  check_int "15 gates" 15 (Circuit.gate_count lowered);
  check_int "7 T gates" 7 (Circuit.t_count lowered);
  check_int "6 CNOTs" 6 (Circuit.cnot_count lowered);
  check_bool "native only" true (Circuit.uses_only_native lowered)

let test_toffoli_permuted_roles () =
  (* Roles can land on any qubit triple. *)
  let original = Circuit.make ~n:4 [ Gate.Toffoli { c1 = 3; c2 = 0; target = 1 } ] in
  let lowered =
    Circuit.make ~n:4 (Decompose.toffoli_to_clifford_t ~c1:3 ~c2:0 ~target:1)
  in
  check_bool "exact on permuted qubits" true (exact_equiv original lowered)

let test_cz_to_cnot () =
  let original = Circuit.make ~n:2 [ Gate.Cz (0, 1) ] in
  let lowered = Circuit.make ~n:2 (Decompose.cz_to_cnot 0 1) in
  check_bool "CZ = H.CNOT.H" true (exact_equiv original lowered)

let mct_circuit n controls target =
  Circuit.make ~n [ Gate.mct controls target ]

let test_vchain_counts () =
  (* Lemma 7.2 produces exactly 4(k-2) Toffolis. *)
  List.iter
    (fun k ->
      let controls = List.init k (fun i -> i) in
      let n = (2 * k) - 1 in
      let gates = Decompose.mct_to_toffoli ~n ~controls ~target:k in
      check_int
        (Printf.sprintf "T%d vchain gate count" (k + 1))
        (4 * (k - 2))
        (List.length gates))
    [ 3; 4; 5; 6; 7 ]

let test_mct_exact_small () =
  (* Unitary check on the dense simulator for k = 3, 4 with plenty of
     free qubits. *)
  List.iter
    (fun k ->
      let controls = List.init k (fun i -> i) in
      let n = (2 * k) - 1 in
      let original = mct_circuit n controls k in
      let lowered =
        Circuit.make ~n (Decompose.mct_to_toffoli ~n ~controls ~target:k)
      in
      check_bool
        (Printf.sprintf "T%d exact" (k + 1))
        true (exact_equiv original lowered))
    [ 3; 4 ]

let classical_equiv a b =
  (* Compare reversible circuits on every basis state: exact and cheap
     even at larger widths. *)
  let n = Circuit.n_qubits a in
  List.for_all
    (fun idx ->
      let bits = Array.init n (fun q -> (idx lsr (n - 1 - q)) land 1 = 1) in
      Sim.classical_run a (Array.copy bits) = Sim.classical_run b bits)
    (List.init (1 lsl n) (fun i -> i))

let test_mct_classical_wide () =
  (* k = 5..8 via classical basis-state enumeration (works because all
     produced gates are Toffolis). *)
  List.iter
    (fun k ->
      let controls = List.init k (fun i -> i) in
      let n = (2 * k) - 1 in
      let original = mct_circuit n controls k in
      let lowered =
        Circuit.make ~n (Decompose.mct_to_toffoli ~n ~controls ~target:k)
      in
      check_bool
        (Printf.sprintf "T%d classical" (k + 1))
        true
        (classical_equiv original lowered))
    [ 5; 6; 7 ]

let test_mct_lemma73_split () =
  (* A 5-control gate on 7 qubits has only one free qubit: forces the
     Lemma 7.3 path. *)
  let controls = [ 0; 1; 2; 3; 4 ] in
  let n = 7 in
  let original = mct_circuit n controls 5 in
  let gates = Decompose.mct_to_toffoli ~n ~controls ~target:5 in
  let lowered = Circuit.make ~n gates in
  check_bool "only Toffoli-or-smaller output" true
    (List.for_all
       (fun g ->
         match g with
         | Gate.Toffoli _ | Gate.Cnot _ | Gate.X _ -> true
         | _ -> false)
       gates);
  check_bool "lemma 7.3 exact" true (classical_equiv original lowered)

let test_mct_no_free_qubit () =
  Alcotest.check_raises "full register rejected"
    (Decompose.Not_enough_qubits
       "T4 gate needs a borrowed qubit but the 4-qubit register is full")
    (fun () ->
      ignore (Decompose.mct_to_toffoli ~n:4 ~controls:[ 0; 1; 2 ] ~target:3))

let test_mct_small_cases_passthrough () =
  check_bool "0 controls" true
    (Decompose.mct_to_toffoli ~n:2 ~controls:[] ~target:1 = [ Gate.X 1 ]);
  check_bool "1 control" true
    (Decompose.mct_to_toffoli ~n:2 ~controls:[ 0 ] ~target:1
    = [ Gate.Cnot { control = 0; target = 1 } ]);
  check_bool "2 controls" true
    (Decompose.mct_to_toffoli ~n:3 ~controls:[ 0; 1 ] ~target:2
    = [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ])

let test_mcz () =
  (* MCZ flips the sign exactly on the all-ones pattern, whichever
     qubit plays the target. *)
  let n = 5 in
  List.iter
    (fun (controls, target) ->
      let gates = Decompose.mcz ~n ~controls ~target in
      let lowered = Circuit.make ~n gates in
      let u = Sim.unitary lowered in
      let dim = 1 lsl n in
      let ok = ref true in
      for k = 0 to dim - 1 do
        let group_bits =
          List.for_all
            (fun q -> (k lsr (n - 1 - q)) land 1 = 1)
            (target :: controls)
        in
        let expected = if group_bits then Mathkit.Cx.of_float (-1.0) else Mathkit.Cx.one in
        if not (Mathkit.Cx.approx_equal ~eps:1e-7 (Mathkit.Matrix.get u k k) expected)
        then ok := false
      done;
      check_bool "diagonal sign pattern" true !ok)
    [ ([ 0; 1 ], 2); ([ 1; 3 ], 0) ]

let test_to_native () =
  let c =
    Circuit.make ~n:5
      [
        Gate.H 0;
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Cz (1, 3);
        Gate.Swap (2, 4);
        Gate.mct [ 0; 1; 2 ] 3;
      ]
  in
  let lowered = Decompose.to_native c in
  check_bool "native library only" true (Circuit.uses_only_native lowered);
  check_bool "unitary preserved" true (Sim.equivalent c lowered)

let prop_toffoli_decomposition_everywhere =
  QCheck2.Test.make ~name:"Toffoli decomposition exact on random triples"
    ~count:25 (Testutil.gen_triple 4)
    (fun (a, b, c) ->
      let original = Circuit.make ~n:4 [ Gate.Toffoli { c1 = a; c2 = b; target = c } ] in
      let lowered =
        Circuit.make ~n:4 (Decompose.toffoli_to_clifford_t ~c1:a ~c2:b ~target:c)
      in
      Sim.equivalent ~up_to_phase:false original lowered)

let prop_to_native_preserves_unitary =
  QCheck2.Test.make ~name:"to_native preserves unitary" ~count:25
    (Testutil.gen_circuit ~max_gates:8 4)
    (fun c -> Sim.equivalent c (Decompose.to_native c))

let () =
  Alcotest.run "decompose"
    [
      ( "figures",
        [
          Alcotest.test_case "fig6 cnot reversal" `Quick test_cnot_reverse;
          Alcotest.test_case "fig3 swap" `Quick test_swap_unrestricted;
          Alcotest.test_case "unidirectional swap" `Quick
            test_swap_unidirectional;
          Alcotest.test_case "uncoupled swap" `Quick test_swap_uncoupled_rejected;
        ] );
      ( "toffoli",
        [
          Alcotest.test_case "clifford+t counts" `Quick test_toffoli_clifford_t;
          Alcotest.test_case "permuted roles" `Quick test_toffoli_permuted_roles;
          Alcotest.test_case "cz lowering" `Quick test_cz_to_cnot;
          QCheck_alcotest.to_alcotest prop_toffoli_decomposition_everywhere;
        ] );
      ( "mct",
        [
          Alcotest.test_case "vchain counts" `Quick test_vchain_counts;
          Alcotest.test_case "exact small" `Quick test_mct_exact_small;
          Alcotest.test_case "classical wide" `Quick test_mct_classical_wide;
          Alcotest.test_case "lemma 7.3" `Quick test_mct_lemma73_split;
          Alcotest.test_case "no free qubit" `Quick test_mct_no_free_qubit;
          Alcotest.test_case "small passthrough" `Quick
            test_mct_small_cases_passthrough;
        ] );
      ( "controlled gates",
        [
          Alcotest.test_case "mcz" `Quick test_mcz;
        ] );
      ( "circuit lowering",
        [
          Alcotest.test_case "to_native" `Quick test_to_native;
          QCheck_alcotest.to_alcotest prop_to_native_preserves_unitary;
        ] );
    ]
