(* The abstract interpreter: lattice pins, exact transfer functions,
   proved facts (dead / demoted gates), the entanglement partition,
   ancilla liveness, the golden GHZ table, the semantic lint rules the
   analysis drives, the fold-states rewrite, and a drift check that the
   README rule table matches `Lint.Rule.all`.  The statistical guarantee
   (every fact holds in the dense simulator) lives in the fuzz property
   `absint-sound`; this suite pins the individual theorems. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let pi = 4.0 *. atan 1.0

let final1 gates =
  let r = Absint.analyze (Circuit.make ~n:1 gates) in
  r.Absint.final.(0)

let has_rule rule findings =
  List.exists (fun f -> f.Lint.rule = rule) findings

(* --- lattice --- *)

let test_lattice () =
  let open Absint.Basis in
  check_bool "join identity" true (equal (join Bot (Known Plus)) (Known Plus));
  check_bool "join equal" true (equal (join (Known One) (Known One)) (Known One));
  check_bool "join distinct smashes" true
    (equal (join (Known Zero) (Known One)) Unknown);
  check_bool "join top" true (equal (join (Known Zero) Unknown) Unknown);
  check_bool "leq chain" true
    (leq Bot (Known Minus) && leq (Known Minus) Unknown);
  check_bool "leq not reflexive across states" false
    (leq (Known Zero) (Known One));
  check_string "|0> renders" "|0>" (state_to_string Zero);
  check_string "? renders" "?" (to_string Unknown)

(* --- transfer functions (via analyze on 1-qubit circuits) --- *)

let test_transfers () =
  let open Absint.Basis in
  let known s = Known s in
  let cases =
    [
      ("H |0> = |+>", [ Gate.H 0 ], known Plus);
      ("X |0> = |1>", [ Gate.X 0 ], known One);
      ("H;S = |i>", [ Gate.H 0; Gate.S 0 ], known PlusI);
      ("H;Z = |->", [ Gate.H 0; Gate.Z 0 ], known Minus);
      ("H;Sdg = |-i>", [ Gate.H 0; Gate.Sdg 0 ], known MinusI);
      ("H;H = |0>", [ Gate.H 0; Gate.H 0 ], known Zero);
      ("T fixes the pole", [ Gate.T 0 ], known Zero);
      ("T off the pole smashes", [ Gate.H 0; Gate.T 0 ], Unknown);
      ("Rz(pi/2) fixes |0>", [ Gate.Rz (pi /. 2.0, 0) ], known Zero);
      ( "Rz(pi/2) quarter-turns |+>",
        [ Gate.H 0; Gate.Rz (pi /. 2.0, 0) ],
        known PlusI );
      ( "Rz(-pi/2) quarter-turns back",
        [ Gate.H 0; Gate.Rz (-.pi /. 2.0, 0) ],
        known MinusI );
      ("Rz(0.3) smashes |+>", [ Gate.H 0; Gate.Rz (0.3, 0) ], Unknown);
      ("Rx(pi) = X ray", [ Gate.Rx (pi, 0) ], known One);
      ("Ry(pi/2) |0> = |+>", [ Gate.Ry (pi /. 2.0, 0) ], known Plus);
      ("Phase(2pi) is identity", [ Gate.H 0; Gate.Phase (2.0 *. pi, 0) ],
        known Plus);
    ]
  in
  List.iter
    (fun (name, gates, expected) ->
      check_bool name true (equal (final1 gates) expected))
    cases

(* --- proved facts --- *)

let test_dead_cnot () =
  (* A CNOT whose control is still |0> is exactly the identity. *)
  let c = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  let r = Absint.analyze c in
  check_int "one dead gate" 1 (List.length r.Absint.dead);
  check_int "no merges" 0 r.Absint.merges;
  check_int "still two classes" 2 (List.length r.Absint.classes);
  check_bool "Dead_gate finding" true
    (has_rule Lint.Rule.Dead_gate (Lint.semantic c))

let test_demoted_cnot () =
  (* A CNOT whose control is proved |1> acts as X on the target. *)
  let c =
    Circuit.make ~n:2 [ Gate.X 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let r = Absint.analyze c in
  (match r.Absint.demoted with
  | [ (1, Gate.Cnot _, [ Gate.X 1 ], _) ] -> ()
  | _ -> Alcotest.fail "expected CNOT demoted to [X q1]");
  check_bool "targets stay separable" true
    (List.length r.Absint.classes = 2);
  check_bool "final target is |1>" true
    (Absint.Basis.equal r.Absint.final.(1) (Absint.Basis.Known Absint.Basis.One));
  check_bool "Constant_control finding" true
    (has_rule Lint.Rule.Constant_control (Lint.semantic c))

let test_phase_kickback () =
  (* CNOT onto a proved |-> target acts as Z on the (live) control. *)
  let c =
    Circuit.make ~n:2
      [ Gate.H 0; Gate.X 1; Gate.H 1; Gate.Cnot { control = 0; target = 1 } ]
  in
  let r = Absint.analyze c in
  (match r.Absint.demoted with
  | [ (3, Gate.Cnot _, [ Gate.Z 0 ], _) ] -> ()
  | _ -> Alcotest.fail "expected CNOT demoted to [Z q0] by kickback");
  check_bool "control picked up the kickback" true
    (Absint.Basis.equal r.Absint.final.(0)
       (Absint.Basis.Known Absint.Basis.Minus));
  check_int "no entanglement" 2 (List.length r.Absint.classes)

let test_x_on_plus_dead () =
  let c = Circuit.make ~n:1 [ Gate.H 0; Gate.X 0 ] in
  let r = Absint.analyze c in
  check_int "X on |+> is dead" 1 (List.length r.Absint.dead)

(* --- entanglement partition --- *)

let ghz3 =
  Circuit.make ~n:3
    [
      Gate.H 0;
      Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 2 };
    ]

let test_ghz_partition () =
  let r = Absint.analyze ghz3 in
  check_bool "class counts per row" true
    (List.map (fun (row : Absint.row) -> row.Absint.classes) r.Absint.rows
    = [ 3; 2; 1 ]);
  check_int "two merges" 2 r.Absint.merges;
  check_bool "one final class" true (r.Absint.classes = [ [ 0; 1; 2 ] ]);
  check_bool "GHZ is separable-free" false
    (has_rule Lint.Rule.Separable_register (Lint.semantic ghz3))

let test_qft_stays_separable () =
  (* The precision pin: QFT from |0...0> is genuinely a product state
     (QFT|0...0> = |+>^n; every decomposed controlled-phase fires with
     its control still provably |0> or |1>), and the partition domain
     proves it — zero merges, n singleton classes.  A naive analysis
     that merged on every 2-qubit gate would collapse to one class. *)
  let c = Benchsuite.Classics.qft 4 in
  let r = Absint.analyze c in
  check_int "no merges" 0 r.Absint.merges;
  check_bool "four singleton classes" true
    (r.Absint.classes = [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]);
  check_bool "factoring reported" true
    (has_rule Lint.Rule.Separable_register (Lint.semantic c))

let test_product_register_factors () =
  let c = Circuit.make ~n:2 [ Gate.H 0; Gate.H 1 ] in
  let fs = Lint.semantic c in
  check_bool "H x H factors" true (has_rule Lint.Rule.Separable_register fs);
  check_bool "factoring is informational" false (Lint.has_errors fs)

(* --- ancilla liveness --- *)

let test_dirty_ancilla () =
  let c = Circuit.make ~n:1 [ Gate.X 0 ] in
  check_bool "X leaves the wire dirty" true
    (has_rule Lint.Rule.Dirty_ancilla (Lint.semantic c));
  let c = Circuit.make ~n:1 [ Gate.X 0; Gate.X 0 ] in
  let r = Absint.analyze c in
  check_bool "X;X is restored" true r.Absint.liveness.(0).Absint.restored;
  check_bool "no dirty finding when restored" false
    (has_rule Lint.Rule.Dirty_ancilla (Lint.semantic c));
  (* An untouched wire is clean by definition, not "restored". *)
  let r = Absint.analyze (Circuit.empty 1) in
  check_bool "untouched wire not marked restored" false
    r.Absint.liveness.(0).Absint.restored

let test_cuccaro_liveness () =
  (* On the all-zero input (0 + 0) the adder is entirely classical:
     every state stays a known basis state and every touched wire is
     provably back in |0> at the end. *)
  let c = Benchsuite.Classics.cuccaro_adder 3 in
  let r = Absint.analyze c in
  Array.iteri
    (fun q (l : Absint.wire_liveness) ->
      match l.Absint.first_use with
      | Some _ ->
        check_bool (Printf.sprintf "q%d restored" q) true l.Absint.restored
      | None -> ())
    r.Absint.liveness

(* --- golden GHZ table --- *)

let test_ghz_golden_table () =
  let r = Absint.analyze ghz3 in
  check_string "state table"
    "   0  H q0                 q0=|+> q1=|0> q2=|0>  classes=3\n\
    \   1  CNOT q0, q1          q0=? q1=? q2=|0>  classes=2\n\
    \   2  CNOT q1, q2          q0=? q1=? q2=?  classes=1\n"
    (Absint.state_table r);
  check_string "summary"
    "final state: q0=? q1=? q2=?\n\
     partition:   {q0,q1,q2}\n\
    \  q0: gates 0..1, ends ?\n\
    \  q1: gates 1..2, ends ?\n\
    \  q2: gates 2..2, ends ?\n\
     facts:       0 dead, 0 demoted, 2 merges, 1 final class\n"
    (Absint.summary r)

(* --- fold-states rewrite --- *)

let test_fold_deletes_dead () =
  let c =
    Circuit.make ~n:2
      [ Gate.Cnot { control = 0; target = 1 }; Gate.H 0; Gate.H 0 ]
  in
  let f = Optimize.fold_known_states c in
  check_bool "oracle accepts" true (f.Optimize.reverted = None);
  check_bool "oracle ran" true f.Optimize.checked;
  check_bool "strictly smaller" true
    (Circuit.gate_count f.Optimize.circuit < Circuit.gate_count c)

let test_fold_demotes_constant_control () =
  let c =
    Circuit.make ~n:2 [ Gate.X 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let f = Optimize.fold_known_states c in
  check_bool "oracle accepts demotion" true (f.Optimize.reverted = None);
  check_int "one demotion" 1 f.Optimize.demoted;
  check_bool "CNOT became 1-qubit" true
    (List.for_all
       (fun g -> List.length (Gate.support g) = 1)
       (Circuit.gates f.Optimize.circuit))

let test_fold_cuccaro () =
  (* The classical adder on |0...0> folds: at minimum, every gate whose
     controls are still |0> dies. *)
  let c = Benchsuite.Classics.cuccaro_adder 3 in
  let f = Optimize.fold_known_states c in
  check_bool "oracle accepts" true (f.Optimize.reverted = None);
  check_bool "at least one gate deleted" true (f.Optimize.deleted > 0)

let test_fold_preserves_entangled () =
  (* Nothing foldable in GHZ: the circuit must come back untouched. *)
  let f = Optimize.fold_known_states ghz3 in
  check_bool "GHZ untouched" true
    (Circuit.gates f.Optimize.circuit = Circuit.gates ghz3);
  check_int "nothing deleted" 0 f.Optimize.deleted

(* --- diagnostics bridge --- *)

let test_to_diagnostic_total () =
  List.iter
    (fun rule ->
      let finding =
        { Lint.severity = Lint.Warning; gate_index = Some 0; rule;
          message = "synthetic" }
      in
      let d = Lint.to_diagnostic ~stage:Diagnostic.Driver finding in
      check_bool
        (Lint.Rule.code rule ^ " message carries the code")
        true
        (let code = Lint.Rule.code rule in
         let msg = d.Diagnostic.message in
         let n = String.length code in
         let rec contains i =
           i + n <= String.length msg
           && (String.sub msg i n = code || contains (i + 1))
         in
         contains 0))
    Lint.Rule.all;
  (* Severity mapping: Error -> Error, Warning/Info -> Warning. *)
  let diag severity =
    (Lint.to_diagnostic ~stage:Diagnostic.Driver
       { Lint.severity; gate_index = None; rule = Lint.Rule.Dead_gate;
         message = "x" })
      .Diagnostic.severity
  in
  check_bool "error maps to error" true (diag Lint.Error = Diagnostic.Error);
  check_bool "info maps to warning" true (diag Lint.Info = Diagnostic.Warning);
  (* The strict-mode override. *)
  let d =
    Lint.to_diagnostic ~kind:Diagnostic.Contract_violation
      ~stage:Diagnostic.Post_optimize
      { Lint.severity = Lint.Error; gate_index = None;
        rule = Lint.Rule.Volume_increase; message = "x" }
  in
  check_bool "kind override" true (d.Diagnostic.kind = Diagnostic.Contract_violation)

(* --- README rule table drift --- *)

let test_readme_rule_table_in_sync () =
  (* Every row of the README's lint rule table (`| code | severity | ...`)
     must be a real rule, and every rule must have a row.  The test/dune
     deps copy ../README.md next to the test binary. *)
  let lines =
    In_channel.with_open_text "../README.md" In_channel.input_lines
  in
  let parse line =
    match String.split_on_char '|' line with
    | "" :: code :: sev :: _ ->
      let code = String.trim code in
      let sev = String.trim sev in
      if
        String.length code > 2
        && code.[0] = '`'
        && code.[String.length code - 1] = '`'
        && List.mem sev [ "error"; "warning"; "info" ]
      then Some (String.sub code 1 (String.length code - 2))
      else None
    | _ -> None
  in
  let table = List.filter_map parse lines in
  check_bool "table is non-empty" true (table <> []);
  let codes = List.map Lint.Rule.code Lint.Rule.all in
  List.iter
    (fun code ->
      check_bool ("README documents " ^ code) true (List.mem code table))
    codes;
  List.iter
    (fun code ->
      check_bool ("README row " ^ code ^ " is a real rule") true
        (List.mem code codes))
    table;
  check_int "one row per rule" (List.length codes) (List.length table)

let () =
  Alcotest.run "absint"
    [
      ( "lattice",
        [
          Alcotest.test_case "join/leq/print" `Quick test_lattice;
          Alcotest.test_case "transfer functions" `Quick test_transfers;
        ] );
      ( "facts",
        [
          Alcotest.test_case "dead CNOT" `Quick test_dead_cnot;
          Alcotest.test_case "demoted CNOT" `Quick test_demoted_cnot;
          Alcotest.test_case "phase kickback" `Quick test_phase_kickback;
          Alcotest.test_case "X on |+> dead" `Quick test_x_on_plus_dead;
        ] );
      ( "partition",
        [
          Alcotest.test_case "GHZ merges" `Quick test_ghz_partition;
          Alcotest.test_case "QFT stays separable" `Quick
            test_qft_stays_separable;
          Alcotest.test_case "product register factors" `Quick
            test_product_register_factors;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "dirty ancilla" `Quick test_dirty_ancilla;
          Alcotest.test_case "cuccaro restored" `Quick test_cuccaro_liveness;
        ] );
      ( "rendering",
        [ Alcotest.test_case "GHZ golden table" `Quick test_ghz_golden_table ] );
      ( "fold",
        [
          Alcotest.test_case "deletes dead" `Quick test_fold_deletes_dead;
          Alcotest.test_case "demotes constant control" `Quick
            test_fold_demotes_constant_control;
          Alcotest.test_case "cuccaro folds" `Quick test_fold_cuccaro;
          Alcotest.test_case "GHZ untouched" `Quick
            test_fold_preserves_entangled;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "to_diagnostic total" `Quick
            test_to_diagnostic_total;
          Alcotest.test_case "README table in sync" `Quick
            test_readme_rule_table_in_sync;
        ] );
    ]
