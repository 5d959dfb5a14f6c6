let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample =
  Circuit.make ~n:3
    [
      Gate.H 0;
      Gate.T 1;
      Gate.Cnot { control = 0; target = 1 };
      Gate.Tdg 1;
      Gate.Cnot { control = 0; target = 2 };
      Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
    ]

let test_stats () =
  let s = Circuit.stats sample in
  check_int "t_count" 2 s.Circuit.t_count;
  check_int "cnot_count" 2 s.Circuit.cnot_count;
  check_int "gate_volume" 6 s.Circuit.gate_volume

let test_make_validates () =
  Alcotest.check_raises "gate outside register"
    (Invalid_argument "Circuit.make: gate H q5 outside 3-qubit register")
    (fun () -> ignore (Circuit.make ~n:3 [ Gate.H 5 ]));
  Alcotest.check_raises "zero qubits"
    (Invalid_argument "Circuit.make: need at least one qubit") (fun () ->
      ignore (Circuit.make ~n:0 []))

let test_of_gates_infers_width () =
  let c = Circuit.of_gates [ Gate.Cnot { control = 4; target = 1 } ] in
  check_int "inferred width" 5 (Circuit.n_qubits c);
  (* The empty gate list is the 1-qubit identity, not an error. *)
  let e = Circuit.of_gates [] in
  check_int "empty width" 1 (Circuit.n_qubits e);
  check_bool "empty circuit" true (Circuit.is_empty e);
  check_int "empty depth" 0 (Circuit.depth e);
  check_bool "empty equals Circuit.empty 1" true (Circuit.equal e (Circuit.empty 1))

let test_rename_never_shrinks () =
  (* Renaming every gate below the old maximum keeps the declared
     width: trailing wires become unused padding instead of the
     register silently renumbering. *)
  let c = Circuit.make ~n:4 [ Gate.H 3; Gate.Cnot { control = 2; target = 3 } ] in
  let r = Circuit.rename (fun q -> q - 2) c in
  check_int "width preserved on shrinking rename" 4 (Circuit.n_qubits r);
  check_bool "gates moved down" true
    (Circuit.gates r = [ Gate.H 1; Gate.Cnot { control = 0; target = 1 } ]);
  (* An expanding rename still grows the register as needed. *)
  let g = Circuit.rename (fun q -> q + 3) c in
  check_int "width grows" 7 (Circuit.n_qubits g);
  (* A merging rename is rejected at the gate level. *)
  Alcotest.check_raises "merging rename rejected"
    (Invalid_argument "Gate.rename: renaming merges qubits") (fun () ->
      ignore (Circuit.rename (fun _ -> 0) c))

let test_concat_inverse () =
  let c = Circuit.concat sample (Circuit.inverse sample) in
  check_int "length doubles" 12 (Circuit.gate_count c);
  check_bool "round trip is identity" true
    (Mathkit.Matrix.is_identity (Sim.unitary c))

let test_widen_rename () =
  let w = Circuit.widen sample 6 in
  check_int "widened" 6 (Circuit.n_qubits w);
  Alcotest.check_raises "cannot shrink"
    (Invalid_argument "Circuit.widen: cannot shrink") (fun () ->
      ignore (Circuit.widen sample 2));
  let r = Circuit.rename (fun q -> q + 2) sample in
  check_int "renamed width" 5 (Circuit.n_qubits r);
  check_bool "renamed first gate" true
    (List.hd (Circuit.gates r) = Gate.H 2)

let test_native_check () =
  check_bool "sample has a Toffoli" false (Circuit.uses_only_native sample);
  let native = Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ] in
  check_bool "native circuit" true (Circuit.uses_only_native native)

let test_map_gates () =
  (* Replace every H with X-Z-X-Z (not equivalent; just exercising the
     structural rewrite). *)
  let c =
    Circuit.map_gates
      (function
        | Gate.H q -> [ Gate.X q; Gate.Z q; Gate.X q; Gate.Z q ]
        | g -> [ g ])
      sample
  in
  check_int "expanded count" 9 (Circuit.gate_count c)

let test_depth () =
  check_int "empty depth" 0 (Circuit.depth (Circuit.empty 3));
  (* H0 and H1 run in parallel; the CNOT joins them. *)
  let c =
    Circuit.make ~n:2 [ Gate.H 0; Gate.H 1; Gate.Cnot { control = 0; target = 1 } ]
  in
  check_int "parallel then join" 2 (Circuit.depth c);
  (* A serial chain on one qubit. *)
  let serial = Circuit.make ~n:1 [ Gate.H 0; Gate.T 0; Gate.H 0 ] in
  check_int "serial chain" 3 (Circuit.depth serial)

let test_t_depth () =
  (* Two T gates on different qubits form one T layer; a T after a CNOT
     joining them forms a second. *)
  let c =
    Circuit.make ~n:2
      [ Gate.T 0; Gate.T 1; Gate.Cnot { control = 0; target = 1 }; Gate.T 1 ]
  in
  check_int "t-depth 2" 2 (Circuit.t_depth c);
  check_int "no T gates" 0
    (Circuit.t_depth (Circuit.make ~n:2 [ Gate.H 0; Gate.H 1 ]));
  (* The 15-gate Toffoli network has T-depth <= T-count. *)
  let toffoli =
    Circuit.make ~n:3 (Decompose.toffoli_to_clifford_t ~c1:0 ~c2:1 ~target:2)
  in
  check_bool "toffoli t-depth below t-count" true
    (Circuit.t_depth toffoli < Circuit.t_count toffoli
    && Circuit.t_depth toffoli > 0)

let prop_depth_bounds =
  QCheck2.Test.make ~name:"depth between volume/n and volume" ~count:100
    (Testutil.gen_circuit 4)
    (fun c ->
      let d = Circuit.depth c in
      let v = Circuit.gate_count c in
      d <= v && (v = 0 || d >= (v + 3) / 4) && Circuit.t_depth c <= d)

let prop_inverse_involutive =
  QCheck2.Test.make ~name:"inverse involutive" ~count:100
    (Testutil.gen_circuit 4) (fun c ->
      Circuit.equal c (Circuit.inverse (Circuit.inverse c)))

let prop_inverse_cancels =
  QCheck2.Test.make ~name:"c . inverse c = identity (simulated)" ~count:40
    (Testutil.gen_circuit ~max_gates:12 3) (fun c ->
      Mathkit.Matrix.is_identity ~eps:1e-7
        (Sim.unitary (Circuit.concat c (Circuit.inverse c))))

let prop_stats_additive =
  QCheck2.Test.make ~name:"stats additive under concat" ~count:100
    (QCheck2.Gen.pair (Testutil.gen_circuit 4) (Testutil.gen_circuit 4))
    (fun (a, b) ->
      let sa = Circuit.stats a
      and sb = Circuit.stats b
      and sc = Circuit.stats (Circuit.concat a b) in
      sc.Circuit.t_count = sa.Circuit.t_count + sb.Circuit.t_count
      && sc.Circuit.cnot_count = sa.Circuit.cnot_count + sb.Circuit.cnot_count
      && sc.Circuit.gate_volume = sa.Circuit.gate_volume + sb.Circuit.gate_volume)

(* --- Builder --- *)

let test_builder_empty_build () =
  let b = Circuit.Builder.create ~n:3 in
  let c = Circuit.Builder.to_circuit b in
  check_bool "empty" true (Circuit.is_empty c);
  check_int "width" 3 (Circuit.n_qubits c);
  check_int "length" 0 (Circuit.Builder.length b);
  check_bool "equals Circuit.empty 3" true (Circuit.equal c (Circuit.empty 3))

let test_builder_interleaved_reuse () =
  (* A frozen circuit is immutable: additions after [to_circuit] must
     not leak into circuits built earlier, and the builder stays
     usable. *)
  let b = Circuit.Builder.create ~n:2 in
  Circuit.Builder.add b (Gate.H 0);
  let first = Circuit.Builder.to_circuit b in
  Circuit.Builder.add_list b [ Gate.X 1; Gate.Cnot { control = 0; target = 1 } ];
  let second = Circuit.Builder.to_circuit b in
  Circuit.Builder.add b (Gate.T 0);
  let third = Circuit.Builder.to_circuit b in
  check_int "first frozen at 1 gate" 1 (Circuit.gate_count first);
  check_bool "first gates" true (Circuit.gates first = [ Gate.H 0 ]);
  check_int "second frozen at 3 gates" 3 (Circuit.gate_count second);
  check_int "third sees all 4 gates" 4 (Circuit.gate_count third);
  check_int "length tracks additions" 4 (Circuit.Builder.length b);
  check_bool "order preserved" true
    (Circuit.gates third
    = [ Gate.H 0; Gate.X 1; Gate.Cnot { control = 0; target = 1 }; Gate.T 0 ])

let test_builder_validates () =
  (match Circuit.Builder.create ~n:0 with
  | (_ : Circuit.Builder.t) -> Alcotest.fail "zero-qubit builder accepted"
  | exception Invalid_argument _ -> ());
  let b = Circuit.Builder.create ~n:2 in
  (match Circuit.Builder.add b (Gate.H 5) with
  | () -> Alcotest.fail "out-of-register gate accepted"
  | exception Invalid_argument _ -> ());
  (* The rejected gate must not have been recorded. *)
  check_int "rejected gate not recorded" 0 (Circuit.Builder.length b)

let test_builder_equals_append_chain () =
  (* Builder-grown circuits are observationally identical to quadratic
     [Circuit.append] chains, over 50 fuzzed gate streams (empty and
     1-qubit circuits included). *)
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let c = Fuzz.Gen.circuit ~max_qubits:6 ~max_gates:16 st in
    let n = Circuit.n_qubits c in
    let b = Circuit.Builder.create ~n in
    let chained =
      List.fold_left
        (fun acc g ->
          Circuit.Builder.add b g;
          Circuit.append acc g)
        (Circuit.empty n) (Circuit.gates c)
    in
    check_bool "builder = append chain" true
      (Circuit.equal (Circuit.Builder.to_circuit b) chained);
    check_bool "builder = source" true
      (Circuit.equal (Circuit.Builder.to_circuit b) c)
  done

let test_full_stats_matches_single_walks () =
  (* The one-pass [full_stats] agrees with the four single-metric walks
     on 50 fuzzed circuits. *)
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let c = Fuzz.Gen.circuit ~max_qubits:8 ~max_gates:24 st in
    let fs = Circuit.full_stats c in
    let s = Circuit.stats c in
    check_int "t_count" s.Circuit.t_count fs.Circuit.fs_t_count;
    check_int "cnot_count" s.Circuit.cnot_count fs.Circuit.fs_cnot_count;
    check_int "gate_volume" s.Circuit.gate_volume fs.Circuit.fs_gate_volume;
    check_int "depth" (Circuit.depth c) fs.Circuit.fs_depth;
    check_int "t_depth" (Circuit.t_depth c) fs.Circuit.fs_t_depth
  done

let () =
  Alcotest.run "circuit"
    [
      ( "structure",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "of_gates" `Quick test_of_gates_infers_width;
          Alcotest.test_case "rename never shrinks" `Quick
            test_rename_never_shrinks;
          Alcotest.test_case "concat/inverse" `Quick test_concat_inverse;
          Alcotest.test_case "widen/rename" `Quick test_widen_rename;
          Alcotest.test_case "native check" `Quick test_native_check;
          Alcotest.test_case "map_gates" `Quick test_map_gates;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "t-depth" `Quick test_t_depth;
        ] );
      ( "builder",
        [
          Alcotest.test_case "empty build" `Quick test_builder_empty_build;
          Alcotest.test_case "interleaved add/build reuse" `Quick
            test_builder_interleaved_reuse;
          Alcotest.test_case "validation" `Quick test_builder_validates;
          Alcotest.test_case "equals append chain (fuzzed)" `Quick
            test_builder_equals_append_chain;
          Alcotest.test_case "full_stats = single walks (fuzzed)" `Quick
            test_full_stats_matches_single_walks;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_depth_bounds;
          QCheck_alcotest.to_alcotest prop_inverse_involutive;
          QCheck_alcotest.to_alcotest prop_inverse_cancels;
          QCheck_alcotest.to_alcotest prop_stats_additive;
        ] );
    ]
