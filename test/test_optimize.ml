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

let test_verdicts_shared_across_domains () =
  (* A fresh domain finds the window verdicts an earlier domain
     simulated, instead of simulating them again.  The angles are this
     test's own, so no other test has put these windows in the tables;
     [Gc.minor_words] counts the calling domain's allocation only. *)
  let c =
    Circuit.make ~n:3
      (List.concat
         (List.init 40 (fun k ->
              let a = 0.1234567 +. (0.001 *. float_of_int k) in
              [ Gate.Rz (a, 0); cnot 0 1; Gate.Rx (a +. 0.5, 1);
                Gate.Ry (a +. 0.25, 2); cnot 1 2 ])))
  in
  let in_fresh_domain () =
    Domain.join
      (Domain.spawn (fun () ->
           let before = Gc.minor_words () in
           let out = Optimize.remove_identity_windows c in
           (out, Gc.minor_words () -. before)))
  in
  let first, first_words = in_fresh_domain () in
  let second, second_words = in_fresh_domain () in
  check_bool "same output" true (Circuit.equal first second);
  check_bool
    (Printf.sprintf "second domain allocates far less (%.0f vs %.0f words)"
       second_words first_words)
    true
    (second_words *. 10.0 < first_words)

(* Minor words [f] allocates on the calling domain, and its result. *)
let words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* Scan [first], then [second]: each output equals the list scan's, and
   [second], whose windows [first] already answered, allocates far less
   than [first], which simulated them. *)
let check_answered_once ~name first second =
  let scan c = words_of (fun () -> Optimize.remove_identity_windows c) in
  let first_words, first_out = scan first in
  let second_words, second_out = scan second in
  check_bool (name ^ ": first output") true
    (Circuit.equal first_out (Reference.remove_identity_windows first));
  check_bool (name ^ ": second output") true
    (Circuit.equal second_out (Reference.remove_identity_windows second));
  check_bool
    (Printf.sprintf "%s: second scan allocates far less (%.0f vs %.0f words)"
       name second_words first_words)
    true
    (second_words *. 10.0 < first_words)

(* Over [a; b]: CNOT b->a, Rx(t) a, CNOT b->a, Rx(u) a.  An Rx on the
   target commutes with the CNOT, so this is Rx(t + u) on [a]: the
   identity when u = -t.  Every qubit is touched twice, so only the
   dense check can tell. *)
let rx_sandwich ~t ~u a b = [ cnot b a; Gate.Rx (t, a); cnot b a; Gate.Rx (u, a) ]

let test_memo_relabel () =
  (* Identity and non-identity sandwiches whose control has the larger
     index, each closed off by a Toffoli on the other three qubits; the
     angles are this test's own.  The permuted copy touches its qubits
     in yet another order, so only a key that labels qubits by first
     touch lets it reuse the original's answers. *)
  let circuit t0 =
    Circuit.make ~n:5
      (List.concat
         (List.init 20 (fun k ->
              let t = t0 +. (0.001 *. float_of_int k) in
              rx_sandwich ~t ~u:(-.t) 0 2
              @ [ Gate.Toffoli { c1 = 1; c2 = 3; target = 4 } ]
              @ rx_sandwich ~t ~u:t 1 3
              @ [ Gate.Toffoli { c1 = 0; c2 = 2; target = 4 } ])))
  in
  let permuted c =
    let perm = [| 3; 0; 4; 1; 2 |] in
    Circuit.make ~n:5 (List.map (Gate.rename (fun q -> perm.(q))) (Circuit.gates c))
  in
  let c = circuit 0.2345 in
  check_answered_once ~name:"original first" c (permuted c);
  let c = circuit 0.3456 in
  check_answered_once ~name:"permuted copy first" (permuted c) c

let test_memo_prefix_reuse () =
  (* First the sandwiches alone, closed off by a Toffoli: each window's
     answer is stored.  Then the same sandwiches followed by an H on a
     third qubit.  Each longer window is new, and the H's lone touch
     rules it out without a simulation; its answer must come from the
     stored prefixes: the identity sandwich goes, the Rx(2t) one
     stays, though the two differ only in an angle. *)
  let circuit ~extend t0 =
    Circuit.make ~n:4
      (List.concat
         (List.init 20 (fun k ->
              let t = t0 +. (0.001 *. float_of_int k) in
              let close =
                if extend then [ Gate.H 2; Gate.X 3 ]
                else [ Gate.Toffoli { c1 = 1; c2 = 2; target = 3 } ]
              in
              rx_sandwich ~t ~u:(-.t) 1 0 @ close @ rx_sandwich ~t ~u:t 1 0 @ close)))
  in
  check_answered_once ~name:"prefixes stored first" (circuit ~extend:false 0.4567)
    (circuit ~extend:true 0.4567)

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

(* Words allocated by [f ()], minor plus those taken straight on the
   major heap (arrays past 256 words), read after a minor collection
   on both sides. *)
let words_allocated f =
  Gc.minor ();
  let minor = Gc.minor_words () and s = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let minor' = Gc.minor_words () and s' = Gc.quick_stat () in
  ignore (Sys.opaque_identity r);
  minor' -. minor
  +. (s'.Gc.major_words -. s.Gc.major_words)
  -. (s'.Gc.promoted_words -. s.Gc.promoted_words)

(* A gate the pass keeps costs no allocation: on a circuit where
   nothing cancels, only the pass's three per-gate arrays remain.  The
   scan looks past T, S, H and CNOTs on ten wires, so it runs through
   the masks, [cancels] and [Gate.commutes]. *)
let test_cancel_pass_keeps_without_allocating () =
  let n = 10_000 in
  let gate i =
    let q k = ((i / 4) + k) mod 10 in
    match i mod 4 with
    | 0 -> Gate.T (q 0)
    | 1 -> Gate.Cnot { control = q 0; target = q 1 }
    | 2 -> Gate.H (q 2)
    | _ -> Gate.S (q 3)
  in
  let c = Circuit.make ~n:10 (List.init n gate) in
  check_bool "nothing cancels" true (Optimize.cancel_pass c == c);
  let words = words_allocated (fun () -> Optimize.cancel_pass c) in
  check_bool
    (Printf.sprintf "%.1f words per gate" (words /. float_of_int n))
    true
    (words < 4.0 *. float_of_int n)

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
      Lint.is_device_legal d (Optimize.optimize ~device:d routed))

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

(* ---- the converged loop against the full-sweep loop ---------------- *)

(* [cancel_pass] as it was before its entries carried qubit masks: every
   entry in the lookback gets the full [cancels] and commutation test,
   and the output is always rebuilt.  The commutation test is the one
   over support lists that [Gate.commutes] replaced. *)
module Unmasked = struct
  let is_diagonal = function
    | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rz _
    | Gate.Phase _ | Gate.Cz _ ->
      true
    | Gate.X _ | Gate.Y _ | Gate.H _ | Gate.Rx _ | Gate.Ry _ | Gate.Cnot _
    | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
      false

  let not_family = function
    | Gate.X q -> Some ([], q)
    | Gate.Cnot { control; target } -> Some ([ control ], target)
    | Gate.Toffoli { c1; c2; target } -> Some ([ c1; c2 ], target)
    | Gate.Mct { controls; target } -> Some (controls, target)
    | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _ | Gate.T _
    | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _
    | Gate.Cz _ | Gate.Swap _ ->
      None

  let commutes_with_support sg g sh h =
    let passes_not g sg h =
      match (g, not_family h) with
      | _, None -> false
      | Gate.Rx (_, q), Some (_, t) -> q = t
      | _, Some (_, t) -> is_diagonal g && not (List.mem t sg)
    in
    let axis = function
      | Gate.X _ | Gate.Rx _ -> 1
      | Gate.Y _ | Gate.Ry _ -> 2
      | _ -> 0
    in
    List.for_all (fun q -> not (List.mem q sh)) sg
    || Gate.equal g h
    || (is_diagonal g && is_diagonal h)
    || passes_not g sg h
    || passes_not h sh g
    || (axis g > 0 && axis g = axis h)
    ||
    match (not_family g, not_family h) with
    | Some (cg, tg), Some (ch, th) -> not (List.mem tg ch || List.mem th cg)
    | (Some _ | None), (Some _ | None) -> false

  let cancel_pass ?(lookback = 50) c =
    let rec try_cancel acc (g, sg) depth =
      match acc with
      | [] -> None
      | ((h, sh) as entry) :: earlier ->
        if depth <= 0 then None
        else if Optimize.cancels h g then Some earlier
        else if commutes_with_support sg g sh h then
          Option.map
            (fun earlier' -> entry :: earlier')
            (try_cancel earlier (g, sg) (depth - 1))
        else None
    in
    let step acc g =
      let entry = (g, Gate.support g) in
      match try_cancel acc entry lookback with
      | Some acc' -> acc'
      | None -> entry :: acc
    in
    Circuit.make ~n:(Circuit.n_qubits c)
      (List.rev_map fst (Circuit.fold step [] c))
end

(* The optimizer loop as it was before a sweep could end early: every
   sweep runs every pass.  It is built from the public passes, with no
   deadline.  Besides the outcome it reports [replays]: the reverts the
   converged loop skips and replays instead.  Those are the reverts of
   a sweep that kept nothing, from the previous sweep's last kept pass
   on. *)
module Full_sweep = struct
  let passes ~device ~rules =
    let shrinking f c =
      let c' = f c in
      if Circuit.gate_count c' < Circuit.gate_count c then Some (c', []) else None
    in
    let counted name f c =
      if not (Rewrite.enabled rules name) then None
      else match f c with _, 0 -> None | c', k -> Some (c', [ (name, k) ])
    in
    let templates c =
      match Rewrite.apply_templates ?device ~selection:rules c with
      | _, [] -> None
      | c', fired -> Some (c', fired)
    in
    [
      shrinking (fun c -> Optimize.cancel_pass c);
      templates;
      counted "rotation-merge" Rewrite.merge_rotations;
      counted "phase-merge" Rewrite.merge_phase_polynomial;
      counted "clifford-normalize" Rewrite.normalize_cliffords;
      shrinking (fun c -> Optimize.remove_identity_windows c);
    ]

  (* One sweep: the circuit, its cost, the index just past the last kept
     pass, and the indices of the passes the guard reverted. *)
  let sweep ~cost ~trace passes (c, k) =
    let _, c, k, last, reverts =
      List.fold_left
        (fun (j, c0, k0, last, reverts) pass ->
          match pass c0 with
          | None -> (j + 1, c0, k0, last, reverts)
          | Some (c1, fired) ->
            let k1 = Cost.evaluate cost c1 in
            if k1 <= k0 +. 1e-9 then begin
              List.iter
                (fun (name, n) ->
                  Trace.bump trace ("rewrite/" ^ name) (float_of_int n))
                fired;
              (j + 1, c1, k1, j + 1, reverts)
            end
            else begin
              Trace.bump trace "rewrite/reverted" 1.0;
              (j + 1, c0, k0, last, j :: reverts)
            end)
        (0, c, k, 0, []) passes
    in
    (c, k, last, reverts)

  let optimize_budgeted ?device ?(cost = Cost.eqn2) ?(trace = Trace.disabled)
      ?(rules = Rewrite.default_selection) ?check ?max_iterations c =
    let passes = passes ~device ~rules in
    let replays = ref 0 in
    let capped i =
      match max_iterations with None -> false | Some cap -> i > cap
    in
    let stop ?(cap = false) ?reverted i best =
      { Optimize.circuit = best; iterations = i - 1; hit_iteration_cap = cap;
        hit_deadline = false; reverted }
    in
    let rec loop i best best_cost previous_last =
      if capped i then stop ~cap:true i best
      else begin
        let sp =
          Trace.start_with trace (Printf.sprintf "optimize/iteration-%d" i)
            ~cost best
        in
        let candidate, candidate_cost, last, reverts =
          sweep ~cost ~trace passes (best, best_cost)
        in
        if last = 0 then
          replays := List.length (List.filter (fun j -> j >= previous_last) reverts);
        let improved = candidate_cost < best_cost in
        let verdict =
          match check with
          | Some budget when improved -> Oracle.unitary budget best candidate
          | Some _ | None -> Oracle.Equal
        in
        if verdict = Oracle.Different then
          Trace.bump trace "rewrite/oracle-rejected" 1.0;
        let refusal = Oracle.refusal verdict in
        Trace.stop_with trace sp ~cost
          ~counters:
            [ ("improved", if improved && refusal = None then 1.0 else 0.0) ]
          candidate;
        match refusal with
        | Some why -> stop ~reverted:why i best
        | None ->
          if improved then loop (i + 1) candidate candidate_cost last
          else stop i best
      end
    in
    let outcome = loop 1 c (Cost.evaluate cost c) (List.length passes) in
    (outcome, !replays)
end

(* T gates are free and every other gate costs 1: phase-merge's
   T; T -> S raises the cost from 0 to 1, so the cost guard reverts
   it. *)
let t_free = Cost.Linear { t = -1.0; cnot = 0.0; gate = 1.0 }

let test_confirming_sweep_replays_reverts () =
  (* Sweep 1 keeps only cancellation (H; H goes) and reverts
     phase-merge's T; T -> S, which [t_free] prices 0 -> 1.  Sweep 2
     ends after cancellation, on the circuit sweep 1 left, and bumps the
     revert it skips, as the full sweep would have. *)
  let c = circ [ Gate.H 0; Gate.H 0; Gate.T 1; Gate.T 1 ] in
  let trace = Trace.create () in
  let out = Optimize.optimize_budgeted ~cost:t_free ~trace c in
  check_bool "T; T stays" true (Circuit.gates out.circuit = [ Gate.T 1; Gate.T 1 ]);
  check_int "one sweep kept" 1 out.iterations;
  check_bool "both reverts counted" true
    (Trace.counter_totals trace = [ ("rewrite/reverted", 2.0) ]);
  check_bool "the confirming sweep has its span" true
    (List.map (fun (s : Trace.span) -> (s.name, s.counters)) (Trace.spans trace)
    = [ ("optimize/iteration-1", [ ("improved", 1.0) ]);
        ("optimize/iteration-2", [ ("improved", 0.0) ]) ])

let test_confirming_sweep_reruns_last_kept_pass () =
  (* With no rules, sweep 1's last kept pass is identity-window removal.
     Deleting the double SWAP exposes H; X; H; Z, which only that pass
     deletes, so sweep 2 must run it again on its own output. *)
  let c = circ ((Gate.H 0 :: Gate.X 0 :: double_swap 0 1) @ [ Gate.H 0; Gate.Z 0 ]) in
  let out = Optimize.optimize_budgeted ~rules:Rewrite.empty_selection c in
  check_int "everything goes" 0 (Circuit.gate_count out.circuit);
  check_int "two sweeps kept" 2 out.iterations

let test_changed_sweep_runs_in_full () =
  (* On a device (so no SWAP template), sweep 1's last kept pass is
     clifford-normalize: phase-merge makes H; S; S; H into H; Z; H and
     clifford-normalize makes that X.  In sweep 2 cancellation deletes
     that X with the last one, through the CNOT onto qubit 2, which
     leaves a double SWAP.  Sweep 2 has changed the circuit, so it runs
     on past where sweep 1 left off, and identity-window removal
     deletes the double SWAP. *)
  let c =
    Circuit.make ~n:5
      ([ cnot 0 1; cnot 1 0; cnot 0 1; Gate.H 2; Gate.S 2; Gate.S 2; Gate.H 2 ]
      @ [ cnot 1 0; cnot 0 1; cnot 1 0; cnot 3 2; Gate.X 2 ])
  in
  let out = Optimize.optimize_budgeted ~device:Device.Ibm.ibmqx4 c in
  check_bool "only the CNOT onto qubit 2 stays" true
    (Circuit.gates out.circuit = [ cnot 3 2 ]);
  check_int "two sweeps kept" 2 out.iterations

(* A few qubits of a 64- to 100-qubit register, two of them 63 apart so
   that their mask bits coincide. *)
let gen_wide_pool =
  let open QCheck2.Gen in
  int_range 64 100 >>= fun n ->
  pair (int_bound (n - 64)) (int_bound (n - 1)) >|= fun (a, b) ->
  (n, List.sort_uniq Int.compare
        [ a; a + 1; a + 63; b; (b + 1) mod n; (b + 2) mod n ])

(* A gate on the pool: at least four distinct qubits, so every gate
   kind has its operands. *)
let gen_pool_gate pool =
  let open QCheck2.Gen in
  let distinct k = map (List.filteri (fun i _ -> i < k)) (shuffle_l pool) in
  let on k f = map f (distinct k) in
  frequency
    [
      ( 6,
        map2
          (fun ctor q -> ctor q)
          (oneofl
             [ (fun q -> Gate.X q); (fun q -> Gate.H q); (fun q -> Gate.T q);
               (fun q -> Gate.Tdg q); (fun q -> Gate.S q); (fun q -> Gate.Z q);
               (fun q -> Gate.Rz (0.3, q)); (fun q -> Gate.Rz (-0.3, q)) ])
          (oneofl pool) );
      (3, on 2 (function [ a; b ] -> cnot a b | _ -> assert false));
      (1, on 2 (function [ a; b ] -> Gate.Cz (a, b) | _ -> assert false));
      (1, on 2 (function [ a; b ] -> Gate.Swap (a, b) | _ -> assert false));
      (1, on 3 (function [ a; b; t ] -> Gate.mct [ a; b ] t | _ -> assert false));
      (1, on 4 (function t :: cs -> Gate.mct cs t | [] -> assert false));
    ]

let gen_wide_circuit =
  let open QCheck2.Gen in
  gen_wide_pool >>= fun (n, pool) ->
  int_bound 120 >>= fun len ->
  list_repeat len (gen_pool_gate pool) >|= Circuit.make ~n

let prop_cancel_pass_matches_unmasked =
  QCheck2.Test.make ~name:"cancel pass matches the unmasked pass" ~count:300
    ~print:(fun (c, lookback) ->
      Printf.sprintf "lookback %d\n%s" lookback (Testutil.print_circuit c))
    QCheck2.Gen.(pair gen_wide_circuit (oneofl [ 1; 2; 3; 7; 50 ]))
    (fun (c, lookback) ->
      let out = Optimize.cancel_pass ~lookback c in
      Circuit.equal out (Unmasked.cancel_pass ~lookback c)
      && (out == c) = (Circuit.gate_count out = Circuit.gate_count c))

type loop_case = {
  circuit : Circuit.t;
  device : Device.t option;
  cost : Cost.t;
  rules : Rewrite.selection;
  check : (string * Oracle.budget) option;
  max_iterations : int option;
}

let print_loop_case k =
  Printf.sprintf "device %s, cost %s, rules %s, check %s, max_iterations %s\n%s"
    (match k.device with None -> "none" | Some d -> Device.name d)
    (Cost.to_string k.cost)
    (Rewrite.selection_to_string k.rules)
    (match k.check with None -> "none" | Some (name, _) -> name)
    (match k.max_iterations with None -> "none" | Some i -> string_of_int i)
    (Testutil.print_circuit k.circuit)

(* Small circuits of library gates with planted identity windows and
   T pairs (which phase-merge fuses to S, against [t_free]), mapped
   circuits on ibmqx4, and wide pool circuits; under three costs, both
   rule sets, with and without the oracle and the iteration cap. *)
let gen_loop_case =
  let open QCheck2.Gen in
  let small =
    int_range 3 6 >>= fun n ->
    int_bound 16 >>= fun len ->
    list_repeat len
      (frequency
         [
           (6, map (fun g -> [ g ]) (Testutil.gen_gate n));
           (2, gen_planted n);
           (1, map (fun q -> [ Gate.T q; Gate.T q ]) (Testutil.gen_qubit n));
         ])
    >|= fun pieces -> (Circuit.make ~n (List.concat pieces), None)
  in
  let mapped =
    Testutil.gen_native_circuit ~max_gates:30 5 >|= fun c ->
    let d = Device.Ibm.ibmqx4 in
    (Route.route_circuit d c, Some d)
  in
  let wide = gen_wide_circuit >|= fun c -> (c, None) in
  let tiny_budget = { Oracle.default_budget with node_budget = Some 1; dense_qubits = 0 } in
  map
    (fun ((circuit, device), cost, rules, check, max_iterations) ->
      { circuit; device; cost; rules; check; max_iterations })
    (tup5
       (frequency [ (5, small); (2, mapped); (1, wide) ])
       (oneofl [ Cost.eqn2; Cost.t_weighted; t_free ])
       (frequency
          [ (3, return Rewrite.default_selection);
            (1, return Rewrite.empty_selection) ])
       (frequency
          [ (6, return None);
            (1, return (Some ("default", Oracle.default_budget)));
            (1, return (Some ("one node", tiny_budget))) ])
       (frequency [ (5, return None); (1, map Option.some (int_range 1 3)) ]))

(* Everything a run shows: the outcome, every sweep span but its
   timings, and the counter totals. *)
let run_view (o : Optimize.outcome) trace =
  let span (s : Trace.span) = (s.name, s.index, s.before, s.after, s.counters) in
  ( (Circuit.gates o.circuit, Circuit.n_qubits o.circuit),
    (o.iterations, o.hit_iteration_cap, o.hit_deadline, o.reverted),
    List.map span (Trace.spans trace),
    Trace.counter_totals trace )

let test_loop_matches_full_sweep () =
  let rand = Random.State.make [| 21 |] in
  let cases = QCheck2.Gen.generate ~rand ~n:1500 gen_loop_case in
  let replays = ref 0 and reverting = ref 0 and confirmed = ref 0 in
  List.iter
    (fun k ->
      let check = Option.map snd k.check in
      let trace = Trace.create () and reference = Trace.create () in
      let out =
        Optimize.optimize_budgeted ?device:k.device ~cost:k.cost ~trace
          ~rules:k.rules ?check ?max_iterations:k.max_iterations k.circuit
      in
      let expected, replayed =
        Full_sweep.optimize_budgeted ?device:k.device ~cost:k.cost
          ~trace:reference ~rules:k.rules ?check
          ?max_iterations:k.max_iterations k.circuit
      in
      if run_view out trace <> run_view expected reference then
        Alcotest.failf "converged loop differs from the full-sweep loop:\n%s"
          (print_loop_case k);
      replays := !replays + replayed;
      if List.mem_assoc "rewrite/reverted" (Trace.counter_totals trace) then
        incr reverting;
      if out.iterations >= 1 && not out.hit_iteration_cap then incr confirmed)
    cases;
  (* The cases must reach what the loop change is about: runs with a
     confirming sweep, runs the guard reverts in, and reverts the early
     end replays. *)
  check_bool (Printf.sprintf "%d runs with a confirming sweep" !confirmed) true
    (!confirmed >= 100);
  check_bool (Printf.sprintf "%d runs revert a pass" !reverting) true
    (!reverting >= 20);
  check_bool (Printf.sprintf "%d reverts replayed" !replays) true
    (!replays >= 5)

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
          Alcotest.test_case "kept gates allocate nothing" `Quick
            test_cancel_pass_keeps_without_allocating;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "identity window" `Quick test_identity_window;
          Alcotest.test_case "window growth past three qubits" `Quick
            test_window_growth_past_three;
          Alcotest.test_case "eight-gate window" `Quick test_eight_gate_window;
          Alcotest.test_case "window at the end" `Quick test_window_at_end;
          Alcotest.test_case "verdicts shared across domains" `Quick
            test_verdicts_shared_across_domains;
          Alcotest.test_case "memo keys relabel by first touch" `Quick
            test_memo_relabel;
          Alcotest.test_case "memo answers from stored prefixes" `Quick
            test_memo_prefix_reuse;
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
          Alcotest.test_case "converged loop matches the full sweeps" `Quick
            test_loop_matches_full_sweep;
          Alcotest.test_case "confirming sweep replays reverts" `Quick
            test_confirming_sweep_replays_reverts;
          Alcotest.test_case "confirming sweep reruns the last kept pass" `Quick
            test_confirming_sweep_reruns_last_kept_pass;
          Alcotest.test_case "a sweep that changes the circuit runs in full"
            `Quick test_changed_sweep_runs_in_full;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_commutes_sound;
          QCheck_alcotest.to_alcotest prop_cancels_sound;
          QCheck_alcotest.to_alcotest prop_optimize_preserves_unitary;
          QCheck_alcotest.to_alcotest prop_optimize_never_worse;
          QCheck_alcotest.to_alcotest prop_cancel_pass_preserves;
          QCheck_alcotest.to_alcotest prop_cancel_pass_matches_unmasked;
          QCheck_alcotest.to_alcotest prop_identity_windows_preserve;
          QCheck_alcotest.to_alcotest prop_identity_windows_match_reference;
        ] );
    ]
