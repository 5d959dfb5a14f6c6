let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circ gates = Circuit.make ~n:4 gates

let test_adjacent_cancellation () =
  let c = circ [ Gate.H 0; Gate.H 0; Gate.X 1; Gate.X 1; Gate.T 2; Gate.Tdg 2 ] in
  check_int "all cancelled" 0 (Circuit.gate_count (Optimize.cancel_pass c))

let test_cancellation_through_commuting () =
  (* The T on q0 commutes through the CNOT control, so T...Tdg cancels
     even with the CNOT in between. *)
  let c =
    circ [ Gate.T 0; Gate.Cnot { control = 0; target = 1 }; Gate.Tdg 0 ]
  in
  let optimized = Optimize.cancel_pass c in
  check_int "only CNOT left" 1 (Circuit.gate_count optimized);
  check_bool "equivalent" true (Sim.equivalent ~up_to_phase:false c optimized)

let test_no_unsound_cancellation () =
  (* H on the CNOT's control does not commute: H...H must NOT cancel. *)
  let c =
    circ [ Gate.H 0; Gate.Cnot { control = 0; target = 1 }; Gate.H 0 ]
  in
  check_int "nothing cancelled" 3 (Circuit.gate_count (Optimize.cancel_pass c))

let test_fusion_rules () =
  (* Cancellation only deletes inverse pairs; fusing two phase gates
     into a third is phase-merge's job. *)
  let cases =
    [
      ([ Gate.T 0; Gate.T 0 ], [ Gate.S 0 ]);
      ([ Gate.S 0; Gate.S 0 ], [ Gate.Z 0 ]);
      ([ Gate.Tdg 0; Gate.Tdg 0 ], [ Gate.Sdg 0 ]);
      ([ Gate.S 0; Gate.Z 0 ], [ Gate.Sdg 0 ]);
      ([ Gate.Z 0; Gate.Sdg 0 ], [ Gate.S 0 ]);
      ([ Gate.T 0; Gate.Sdg 0 ], [ Gate.Tdg 0 ]);
      ([ Gate.Tdg 0; Gate.S 0 ], [ Gate.T 0 ]);
    ]
  in
  List.iter
    (fun (input, expected) ->
      let name = String.concat ";" (List.map Gate.to_string input) in
      check_bool (name ^ " left to phase-merge") true
        (Circuit.gates (Optimize.cancel_pass (circ input)) = input);
      let out, _ = Rewrite.merge_phase_polynomial (circ input) in
      check_bool (name ^ " fuses") true (Circuit.gates out = expected);
      check_bool "fusion exact" true
        (Sim.equivalent ~up_to_phase:false (circ input) out))
    cases

let test_toffoli_cancellation () =
  let c =
    circ
      [
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Toffoli { c1 = 1; c2 = 0; target = 2 };
      ]
  in
  check_int "commuted-roles Toffoli pair cancels" 0
    (Circuit.gate_count (Optimize.cancel_pass c))

(* The list-based identity-window scan that the flat array scan in
   [Optimize] replaced, kept as the differential reference.  It has no
   memo: every window that passes the pre-filters is simulated, so the
   comparison also checks that the memo key never conflates two
   windows. *)
module Reference = struct
  let near_identity_possible = function
    | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ -> true
    | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
    | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
    | Gate.Toffoli _ | Gate.Mct _ ->
      false

  let lone_touch_rules_out window supports support =
    List.exists
      (fun q ->
        match
          List.filter (fun (_, s) -> List.mem q s) (List.combine window supports)
        with
        | [ (g, _) ] -> not (near_identity_possible g)
        | _ -> false)
      support

  let window_is_identity window =
    let supports = List.map Gate.support window in
    let support = List.sort_uniq Int.compare (List.concat supports) in
    List.length support <= 3
    &&
    match window with
    | [ g; h ] when Gate.equal h (Gate.adjoint g) -> true
    | _ ->
      (not (lone_touch_rules_out window supports support))
      &&
      let index q =
        let rec find i = function
          | [] -> assert false
          | x :: rest -> if x = q then i else find (i + 1) rest
        in
        find 0 support
      in
      let signature = List.map (Gate.rename index) window in
      let compact = Circuit.make ~n:(List.length support) signature in
      Mathkit.Matrix.is_identity ~eps:1e-9 (Sim.unitary compact)

  let remove_identity_windows ?(max_window = 6) c =
    let rec take k = function
      | rest when k = 0 -> Some ([], rest)
      | [] -> None
      | g :: rest -> (
        match take (k - 1) rest with
        | Some (window, tail) -> Some (g :: window, tail)
        | None -> None)
    in
    let rec go gates =
      match gates with
      | [] -> []
      | g :: rest ->
        let rec try_window w =
          if w < 2 then None
          else
            match take w gates with
            | Some (window, tail) when window_is_identity window -> Some tail
            | Some _ | None -> try_window (w - 1)
        in
        (match try_window max_window with
        | Some tail -> go tail
        | None -> g :: go rest)
    in
    Circuit.make ~n:(Circuit.n_qubits c) (go (Circuit.gates c))
end

let cnot a b = Gate.Cnot { control = a; target = b }

(* Six alternating CNOTs: two SWAPs, the identity. *)
let double_swap a b = [ cnot a b; cnot b a; cnot a b; cnot b a; cnot a b; cnot b a ]

(* H X H = Z, so H; X; H; Z is the identity on one wire. *)
let hxhz q = [ Gate.H q; Gate.X q; Gate.H q; Gate.Z q ]

(* An identity window to plant: a gate and its adjoint, a double SWAP,
   or H; X; H; Z. *)
let gen_planted n =
  let open QCheck2.Gen in
  oneof
    [
      map (fun g -> [ g; Gate.adjoint g ]) (Testutil.gen_gate n);
      map (fun (a, b) -> double_swap a b) (Testutil.gen_pair n);
      map hxhz (Testutil.gen_qubit n);
    ]

let same_as_reference ?max_window c =
  Circuit.equal
    (Optimize.remove_identity_windows ?max_window c)
    (Reference.remove_identity_windows ?max_window c)

let test_identity_window () =
  (* CNOT(0,1) CNOT(1,0) CNOT(0,1) CNOT(1,0) CNOT(0,1) CNOT(1,0) is the
     identity (two SWAPs): a 6-gate window no pairwise rule catches. *)
  let cnot a b = Gate.Cnot { control = a; target = b } in
  let c =
    circ [ cnot 0 1; cnot 1 0; cnot 0 1; cnot 1 0; cnot 0 1; cnot 1 0 ]
  in
  check_int "window removed" 0
    (Circuit.gate_count (Optimize.remove_identity_windows c))

let test_window_growth_past_three () =
  (* The Toffoli would grow the 2-qubit CNOT prefix to 5 qubits: growth
     stops before it, and the Toffoli pair still goes as an exact
     inverse pair. *)
  let toffoli = Gate.Toffoli { c1 = 2; c2 = 3; target = 4 } in
  let c = Circuit.make ~n:5 [ cnot 0 1; toffoli; toffoli; cnot 0 1 ] in
  check_bool "Toffoli pair removed" true
    (Circuit.gates (Optimize.remove_identity_windows c) = [ cnot 0 1; cnot 0 1 ]);
  check_bool "same as the list scan" true (same_as_reference c)

let test_eight_gate_window () =
  (* (CNOT 0->1; CNOT 1->2)^2 is CNOT 0->2, so the 8 gates of
     (CNOT 0->1; CNOT 1->2)^4 on 3 qubits are the identity, and no
     shorter window of them is. *)
  let c = circ (List.concat (List.init 4 (fun _ -> [ cnot 0 1; cnot 1 2 ]))) in
  check_int "whole window under max_window 8" 0
    (Circuit.gate_count (Optimize.remove_identity_windows ~max_window:8 c));
  check_int "out of reach of the default" 8
    (Circuit.gate_count (Optimize.remove_identity_windows c));
  check_bool "same as the list scan (8)" true (same_as_reference ~max_window:8 c);
  check_bool "same as the list scan (6)" true (same_as_reference c)

let test_window_at_end () =
  (* H; X; H; Z ends on the circuit's last gate. *)
  let c = circ (Gate.T 0 :: hxhz 1) in
  check_bool "trailing window removed" true
    (Circuit.gates (Optimize.remove_identity_windows c) = [ Gate.T 0 ]);
  check_bool "same as the list scan" true (same_as_reference c)

let test_opt_rules_none () =
  (* With no rules a sweep is inverse-pair cancellation plus
     identity-window removal, nothing else: T; T stays two gates. *)
  let tt = circ [ Gate.T 0; Gate.T 0 ] in
  check_bool "none keeps T; T" true
    (Circuit.gates (Optimize.optimize ~rules:Rewrite.empty_selection tt)
    = Circuit.gates tt);
  check_bool "default fuses T; T to S" true
    (Circuit.gates (Optimize.optimize tt) = [ Gate.S 0 ]);
  let pair = circ [ Gate.T 0; Gate.Tdg 0; Gate.H 1; Gate.H 1 ] in
  check_int "none still cancels inverse pairs" 0
    (Circuit.gate_count (Optimize.optimize ~rules:Rewrite.empty_selection pair))

let test_per_pass_guard () =
  (* phase-merge turns Sdg; Phase(pi/4) into Tdg: one gate fewer, but
     under the T-weighted objective 2 -> 11.  The per-pass guard keeps
     the input. *)
  let c = circ [ Gate.Sdg 0; Gate.Phase (Float.pi /. 4.0, 0) ] in
  let out = Optimize.optimize ~cost:Cost.t_weighted c in
  check_bool "t-weighted keeps the pair" true
    (Circuit.gates out = Circuit.gates c);
  check_bool "eqn2 takes the merge" true
    (Circuit.gates (Optimize.optimize c) = [ Gate.Tdg 0 ])

let test_optimize_fixed_point () =
  (* A cascade needing multiple passes: inner pair cancels, exposing the
     outer pair. *)
  let c =
    circ
      [
        Gate.H 0;
        Gate.Cnot { control = 0; target = 1 };
        Gate.X 2;
        Gate.X 2;
        Gate.Cnot { control = 0; target = 1 };
        Gate.H 0;
      ]
  in
  check_int "everything collapses" 0 (Circuit.gate_count (Optimize.optimize c))

let test_optimize_keeps_meaning () =
  let c =
    circ
      [
        Gate.H 0;
        Gate.T 0;
        Gate.T 0;
        Gate.Cnot { control = 0; target = 3 };
        Gate.Sdg 0;
        Gate.H 0;
      ]
  in
  let out = Optimize.optimize c in
  check_bool "cheaper" true (Cost.evaluate Cost.eqn2 out < Cost.evaluate Cost.eqn2 c);
  check_bool "same unitary" true (Sim.equivalent ~up_to_phase:false c out)

let test_commutes_rules () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  check_bool "disjoint" true (Gate.commutes (Gate.H 0) (Gate.X 3));
  check_bool "diag pair" true (Gate.commutes (Gate.T 0) (Gate.Cz (0, 1)));
  check_bool "T on control" true (Gate.commutes (Gate.T 0) (cnot 0 1));
  check_bool "T on target" false (Gate.commutes (Gate.T 1) (cnot 0 1));
  check_bool "X on target" true (Gate.commutes (Gate.X 1) (cnot 0 1));
  check_bool "X on control" false (Gate.commutes (Gate.X 0) (cnot 0 1));
  check_bool "shared control" true (Gate.commutes (cnot 0 1) (cnot 0 2));
  check_bool "shared target" true (Gate.commutes (cnot 0 2) (cnot 1 2));
  check_bool "control-target clash" false (Gate.commutes (cnot 0 1) (cnot 1 2));
  check_bool "H on shared qubit" false (Gate.commutes (Gate.H 0) (cnot 0 1))

(* Gaps the old commutation table missed: X/Rx (and Y/Ry) on a shared
   wire are both functions of the same Pauli, and an Rx on a CNOT
   target commutes just like X does.  Each pin here failed before the
   table was extended. *)
let test_commutes_rotation_fixes () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  check_bool "Rx through target" true (Gate.commutes (Gate.Rx (0.4, 1)) (cnot 0 1));
  check_bool "Rx on control" false (Gate.commutes (Gate.Rx (0.4, 0)) (cnot 0 1));
  check_bool "X with Rx shared wire" true (Gate.commutes (Gate.X 0) (Gate.Rx (0.4, 0)));
  check_bool "Y with Ry shared wire" true (Gate.commutes (Gate.Y 2) (Gate.Ry (0.4, 2)));
  check_bool "X with Ry shared wire" false (Gate.commutes (Gate.X 0) (Gate.Ry (0.4, 0)));
  check_bool "Y with Rx shared wire" false (Gate.commutes (Gate.Y 0) (Gate.Rx (0.4, 0)));
  (* The cancellations the new rules unlock. *)
  let through_target = circ [ Gate.Rx (0.4, 1); cnot 0 1; Gate.Rx (-0.4, 1) ] in
  let out = Optimize.cancel_pass through_target in
  check_int "Rx pair cancels through CNOT target" 1 (Circuit.gate_count out);
  check_bool "Rx cancellation exact" true
    (Sim.equivalent ~up_to_phase:false through_target out);
  let through_y = circ [ Gate.Ry (0.3, 0); Gate.Y 0; Gate.Ry (-0.3, 0) ] in
  let out = Optimize.cancel_pass through_y in
  check_int "Ry pair cancels through Y" 1 (Circuit.gate_count out);
  check_bool "Ry cancellation exact" true
    (Sim.equivalent ~up_to_phase:false through_y out);
  (* Rx on the control must NOT slide: H-basis check that the unsound
     direction stays blocked. *)
  let on_control = circ [ Gate.Rx (0.4, 0); cnot 0 1; Gate.Rx (-0.4, 0) ] in
  check_int "Rx on control stays" 3
    (Circuit.gate_count (Optimize.cancel_pass on_control))

let test_phase_chain_collapses () =
  (* T.T.T.T = Z through repeated pairwise fusion (T.T = S, S.S = Z);
     needs the fixed-point loop, not a single pass. *)
  let c = circ [ Gate.T 0; Gate.T 0; Gate.T 0; Gate.T 0 ] in
  check_bool "TTTT = Z" true (Circuit.gates (Optimize.optimize c) = [ Gate.Z 0 ]);
  (* Eight T gates cancel entirely. *)
  let c8 = circ (List.init 8 (fun _ -> Gate.T 0)) in
  check_int "T^8 = I" 0 (Circuit.gate_count (Optimize.optimize c8))

let test_lookback_bound () =
  (* Two H gates on q0 separated by more commuting gates than the
     lookback window: the bounded pass must not cancel them, the default
     one does. *)
  let spacers = List.init 6 (fun i -> Gate.T ((i mod 3) + 1)) in
  let c = circ ((Gate.H 0 :: spacers) @ [ Gate.H 0 ]) in
  (* Wide window: the H pair cancels and the six T gates stay (fusing
     them is phase-merge's job).  Narrow window: nothing is close
     enough. *)
  check_int "wide window cancels" 6
    (Circuit.gate_count (Optimize.cancel_pass ~lookback:50 c));
  check_int "narrow window keeps all" 8
    (Circuit.gate_count (Optimize.cancel_pass ~lookback:2 c))

let prop_device_optimize_stays_legal =
  (* Optimizing a mapped circuit must never introduce an illegal CNOT:
     the guarantee that lets the compiler optimize after routing. *)
  QCheck2.Test.make ~name:"device-aware optimization preserves legality"
    ~count:25
    (Testutil.gen_native_circuit ~max_gates:8 5)
    (fun c ->
      let d = Device.Ibm.ibmqx4 in
      let routed = Route.route_circuit d c in
      Route.legal_on d (Optimize.optimize ~device:d routed))

let prop_commutes_sound =
  (* Whenever [commutes] says yes, the matrices really commute. *)
  QCheck2.Test.make ~name:"commutes is sound" ~count:300
    QCheck2.Gen.(pair (Testutil.gen_gate 4) (Testutil.gen_gate 4))
    (fun (g, h) ->
      (not (Gate.commutes g h))
      ||
      let a = Gate.embedded_matrix ~n:4 g and b = Gate.embedded_matrix ~n:4 h in
      Mathkit.Matrix.approx_equal ~eps:1e-9 (Mathkit.Matrix.mul a b)
        (Mathkit.Matrix.mul b a))

let prop_cancels_sound =
  (* Whenever [cancels] says yes, the pair is exactly the identity. *)
  QCheck2.Test.make ~name:"cancels is sound" ~count:300
    QCheck2.Gen.(
      pair (Testutil.gen_gate 4) (Testutil.gen_gate 4)
      |> map (fun (g, h) -> if g = h then (g, Gate.adjoint g) else (g, h)))
    (fun (g, h) ->
      (not (Optimize.cancels g h))
      || Sim.equivalent ~up_to_phase:false
           (Circuit.make ~n:4 [ g; h ])
           (Circuit.make ~n:4 []))

let prop_optimize_preserves_unitary =
  QCheck2.Test.make ~name:"optimize preserves unitary exactly" ~count:40
    (Testutil.gen_circuit ~max_gates:20 4)
    (fun c -> Sim.equivalent ~up_to_phase:false c (Optimize.optimize c))

let prop_optimize_never_worse =
  QCheck2.Test.make ~name:"optimize never increases cost" ~count:60
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c ->
      Cost.evaluate Cost.eqn2 (Optimize.optimize c) <= Cost.evaluate Cost.eqn2 c)

let prop_cancel_pass_preserves =
  QCheck2.Test.make ~name:"cancel pass preserves unitary" ~count:60
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c -> Sim.equivalent ~up_to_phase:false c (Optimize.cancel_pass c))

let prop_identity_windows_preserve =
  (* A random circuit rarely holds an identity window, so one is planted
     at a random position: the pass must delete something and keep the
     unitary exactly. *)
  QCheck2.Test.make ~name:"identity-window removal preserves unitary" ~count:40
    ~print:Testutil.print_circuit
    QCheck2.Gen.(
      map3
        (fun c planted at ->
          let gates = Circuit.gates c in
          let at = at mod (List.length gates + 1) in
          Circuit.make ~n:4
            (List.filteri (fun i _ -> i < at) gates
            @ planted
            @ List.filteri (fun i _ -> i >= at) gates))
        (Testutil.gen_circuit ~max_gates:25 4)
        (gen_planted 4) nat)
    (fun c ->
      let out = Optimize.remove_identity_windows c in
      Circuit.gate_count out < Circuit.gate_count c
      && Sim.equivalent ~up_to_phase:false c out)

(* Circuits of 3 to 5 qubits mixing random library gates, 3-control
   MCTs (too wide for any window), near-zero rotations (which the
   lone-touch filter lets through) and planted identity windows, with
   a window bound of 2 to 8. *)
let gen_window_case =
  let open QCheck2.Gen in
  int_range 3 5 >>= fun n ->
  (* Used only when n >= 4, so the shuffle has four qubits to take. *)
  let mct3 =
    map
      (function
        | a :: b :: c :: t :: _ -> Gate.mct [ a; b; c ] t
        | _ -> invalid_arg "mct3 needs four qubits")
      (shuffle_l (List.init n Fun.id))
  in
  let tiny =
    map3
      (fun ctor theta q -> ctor theta q)
      (oneofl
         [
           (fun t q -> Gate.Rx (t, q));
           (fun t q -> Gate.Ry (t, q));
           (fun t q -> Gate.Rz (t, q));
           (fun t q -> Gate.Phase (t, q));
         ])
      (oneofl [ 1e-11; -1e-11; 1e-13; 0.0 ])
      (Testutil.gen_qubit n)
  in
  let piece =
    frequency
      ([
         (6, map (fun g -> [ g ]) (Testutil.gen_gate n));
         (1, map (fun g -> [ g ]) tiny);
         (2, gen_planted n);
       ]
      @ if n >= 4 then [ (1, map (fun g -> [ g ]) mct3) ] else [])
  in
  pair
    (int_bound 14 >>= fun len ->
     list_repeat len piece >|= fun pieces -> Circuit.make ~n (List.concat pieces))
    (int_range 2 8)

let prop_identity_windows_match_reference =
  QCheck2.Test.make ~name:"identity-window scan matches the list scan" ~count:500
    ~print:(fun (c, w) ->
      Printf.sprintf "max_window %d\n%s" w (Testutil.print_circuit c))
    gen_window_case
    (fun (c, max_window) -> same_as_reference ~max_window c)

let () =
  Alcotest.run "optimize"
    [
      ( "cancellation",
        [
          Alcotest.test_case "adjacent pairs" `Quick test_adjacent_cancellation;
          Alcotest.test_case "through commuting gates" `Quick
            test_cancellation_through_commuting;
          Alcotest.test_case "no unsound cancellation" `Quick
            test_no_unsound_cancellation;
          Alcotest.test_case "fusion rules" `Quick test_fusion_rules;
          Alcotest.test_case "toffoli pair" `Quick test_toffoli_cancellation;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "identity window" `Quick test_identity_window;
          Alcotest.test_case "window growth past three qubits" `Quick
            test_window_growth_past_three;
          Alcotest.test_case "eight-gate window" `Quick test_eight_gate_window;
          Alcotest.test_case "window at the end" `Quick test_window_at_end;
        ] );
      ( "fixed point",
        [
          Alcotest.test_case "cascade" `Quick test_optimize_fixed_point;
          Alcotest.test_case "meaning preserved" `Quick test_optimize_keeps_meaning;
          Alcotest.test_case "commutation rules" `Quick test_commutes_rules;
          Alcotest.test_case "rotation commutation fixes" `Quick
            test_commutes_rotation_fixes;
          Alcotest.test_case "phase chain" `Quick test_phase_chain_collapses;
          Alcotest.test_case "lookback bound" `Quick test_lookback_bound;
          Alcotest.test_case "opt-rules none" `Quick test_opt_rules_none;
          Alcotest.test_case "per-pass guard" `Quick test_per_pass_guard;
          QCheck_alcotest.to_alcotest prop_device_optimize_stays_legal;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_commutes_sound;
          QCheck_alcotest.to_alcotest prop_cancels_sound;
          QCheck_alcotest.to_alcotest prop_optimize_preserves_unitary;
          QCheck_alcotest.to_alcotest prop_optimize_never_worse;
          QCheck_alcotest.to_alcotest prop_cancel_pass_preserves;
          QCheck_alcotest.to_alcotest prop_identity_windows_preserve;
          QCheck_alcotest.to_alcotest prop_identity_windows_match_reference;
        ] );
    ]
