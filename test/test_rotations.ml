(* Rotation-gate coverage: the "phase rotation / amplitude rotation"
   members of the paper's IBM gate list, across the whole stack. *)

open Mathkit

let check_bool = Alcotest.(check bool)
let pi = 4.0 *. atan 1.0

let test_canonical_angle () =
  check_bool "zero" true (Gate.canonical_angle 0.0 = 0.0);
  check_bool "fold 2pi" true (Gate.canonical_angle (2.0 *. pi) = 0.0);
  check_bool "fold -2pi" true (Gate.canonical_angle (-2.0 *. pi) = 0.0);
  check_bool "pi stays pi" true (Gate.canonical_angle pi = pi);
  check_bool "-pi maps to pi" true (Gate.canonical_angle (-.pi) = pi);
  check_bool "3pi maps to pi" true (Gate.canonical_angle (3.0 *. pi) = pi);
  check_bool "small stays" true
    (abs_float (Gate.canonical_angle 0.5 -. 0.5) < 1e-15)

let test_phase_gate_snapping () =
  check_bool "0 -> none" true (Gate.phase_gate 0.0 2 = None);
  check_bool "pi -> Z" true (Gate.phase_gate pi 2 = Some (Gate.Z 2));
  check_bool "pi/2 -> S" true (Gate.phase_gate (pi /. 2.0) 2 = Some (Gate.S 2));
  check_bool "-pi/2 -> Sdg" true
    (Gate.phase_gate (-.pi /. 2.0) 2 = Some (Gate.Sdg 2));
  check_bool "pi/4 -> T" true (Gate.phase_gate (pi /. 4.0) 2 = Some (Gate.T 2));
  check_bool "-pi/4 -> Tdg" true
    (Gate.phase_gate (-.pi /. 4.0) 2 = Some (Gate.Tdg 2));
  check_bool "generic -> Phase" true
    (match Gate.phase_gate 0.3 2 with
    | Some (Gate.Phase (t, 2)) -> abs_float (t -. 0.3) < 1e-15
    | _ -> false);
  check_bool "9pi/4 folds to T" true
    (Gate.phase_gate (9.0 *. pi /. 4.0) 0 = Some (Gate.T 0))

let test_rotation_matrices () =
  List.iter
    (fun g ->
      check_bool
        (Gate.to_string g ^ " unitary")
        true
        (Matrix.is_unitary (Gate.base_matrix g)))
    [
      Gate.Rx (0.7, 0); Gate.Ry (-1.3, 0); Gate.Rz (2.2, 0); Gate.Phase (0.4, 0);
    ];
  (* Special values: Phase(pi) = Z exactly (up to float eps); Rz(pi) = Z
     up to global phase -i. *)
  check_bool "Phase(pi) = Z" true
    (Matrix.approx_equal ~eps:1e-12
       (Gate.base_matrix (Gate.Phase (pi, 0)))
       (Gate.base_matrix (Gate.Z 0)));
  check_bool "Rz(pi) ~ Z up to phase" true
    (Matrix.equal_up_to_global_phase
       (Gate.base_matrix (Gate.Rz (pi, 0)))
       (Gate.base_matrix (Gate.Z 0)));
  check_bool "Rx(pi) ~ X up to phase" true
    (Matrix.equal_up_to_global_phase
       (Gate.base_matrix (Gate.Rx (pi, 0)))
       (Gate.base_matrix (Gate.X 0)));
  check_bool "Ry(pi) ~ Y up to phase" true
    (Matrix.equal_up_to_global_phase
       (Gate.base_matrix (Gate.Ry (pi, 0)))
       (Gate.base_matrix (Gate.Y 0)))

let test_adjoints () =
  let c = Circuit.make ~n:1 [ Gate.Rz (0.8, 0); Gate.adjoint (Gate.Rz (0.8, 0)) ] in
  check_bool "Rz adjoint cancels" true (Matrix.is_identity (Sim.unitary c));
  let p =
    Circuit.make ~n:1 [ Gate.Phase (1.1, 0); Gate.adjoint (Gate.Phase (1.1, 0)) ]
  in
  check_bool "Phase adjoint cancels" true (Matrix.is_identity (Sim.unitary p))

let test_optimizer_fusions () =
  let c gates = Circuit.make ~n:2 gates in
  let cancelled gates = Circuit.gates (Optimize.cancel_pass (c gates)) in
  let rotations gates = Circuit.gates (fst (Rewrite.merge_rotations (c gates))) in
  let phases gates =
    Circuit.gates (fst (Rewrite.merge_phase_polynomial (c gates)))
  in
  (* Same-axis rotations fuse in rotation-merge. *)
  (match rotations [ Gate.Rz (0.3, 0); Gate.Rz (0.4, 0) ] with
  | [ Gate.Rz (t, 0) ] -> check_bool "Rz sums" true (abs_float (t -. 0.7) < 1e-12)
  | _ -> Alcotest.fail "expected a single fused Rz");
  check_bool "Rz inverse pair cancels" true
    (cancelled [ Gate.Rz (0.3, 0); Gate.Rz (-0.3, 0) ] = []);
  (* Phase-family fusion in phase-merge subsumes the named gates: T
     then Phase(pi/4) becomes S. *)
  check_bool "T + Phase(pi/4) = S" true
    (phases [ Gate.T 0; Gate.Phase (pi /. 4.0, 0) ] = [ Gate.S 0 ]);
  check_bool "Phase inverse pair cancels" true
    (cancelled [ Gate.Phase (0.9, 1); Gate.Phase (-0.9, 1) ] = []);
  (* Rz(pi).Rz(pi) = -I: must NOT silently cancel (global phase). *)
  let two_pi = [ Gate.Rz (pi, 0); Gate.Rz (pi, 0) ] in
  check_bool "Rz 2pi pair not cancelled" true (cancelled two_pi = two_pi);
  match rotations two_pi with
  | [ Gate.Rz (t, 0) ] ->
    check_bool "Rz 2pi kept" true (abs_float (t -. (2.0 *. pi)) < 1e-12)
  | [] -> Alcotest.fail "unsound cancellation of Rz(2pi)"
  | _ -> Alcotest.fail "unexpected fusion result"

let test_qmdd_rotations () =
  let c =
    Circuit.make ~n:2
      [
        Gate.Rx (0.6, 0);
        Gate.Cnot { control = 0; target = 1 };
        Gate.Phase (1.2, 1);
        Gate.Ry (-0.9, 0);
      ]
  in
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.of_circuit m c in
  check_bool "QMDD matches dense with rotations" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e) (Sim.unitary c));
  check_bool "equivalence with rotations" true
    (Qmdd.equivalent ~up_to_phase:false c c)

let test_formats_roundtrip () =
  let c =
    Circuit.make ~n:2
      [
        Gate.Rx (0.1234567890123, 0);
        Gate.Ry (-2.5, 1);
        Gate.Rz (pi /. 3.0, 0);
        Gate.Phase (0.7071, 1);
      ]
  in
  check_bool "qasm roundtrip" true
    (Circuit.equal c (Qformats.Qasm.of_string (Qformats.Qasm.to_string c)));
  check_bool "qc roundtrip" true
    (Circuit.equal c
       (Qformats.Qc.of_string (Qformats.Qc.to_string c)).Qformats.Qc.circuit);
  (* .real rejects rotations. *)
  match Qformats.Real.to_string c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail ".real accepted a rotation"

let test_controlled_rotations () =
  let dense_cphase theta =
    let m = Matrix.identity 4 in
    Matrix.set m 3 3 (Cx.make (cos theta) (sin theta));
    m
  in
  let theta = pi /. 8.0 in
  let cp =
    Circuit.make ~n:2 (Decompose.controlled_phase ~theta ~control:0 ~target:1)
  in
  check_bool "controlled phase exact" true
    (Matrix.approx_equal ~eps:1e-12 (Sim.unitary cp) (dense_cphase theta));
  (* Controlled-Rz: block-diagonal I (+) Rz(theta). *)
  let crz =
    Circuit.make ~n:2 (Decompose.controlled_rz ~theta ~control:0 ~target:1)
  in
  let expected = Matrix.identity 4 in
  Matrix.set expected 2 2 (Cx.make (cos (theta /. 2.0)) (-.sin (theta /. 2.0)));
  Matrix.set expected 3 3 (Cx.make (cos (theta /. 2.0)) (sin (theta /. 2.0)));
  check_bool "controlled rz exact" true
    (Matrix.approx_equal ~eps:1e-12 (Sim.unitary crz) expected);
  (* Controlled-Ry: check via the defining property on basis states. *)
  let cry =
    Circuit.make ~n:2 (Decompose.controlled_ry ~theta ~control:0 ~target:1)
  in
  let expected_ry = Matrix.identity 4 in
  let c2 = cos (theta /. 2.0) and s2 = sin (theta /. 2.0) in
  Matrix.set expected_ry 2 2 (Cx.of_float c2);
  Matrix.set expected_ry 2 3 (Cx.of_float (-.s2));
  Matrix.set expected_ry 3 2 (Cx.of_float s2);
  Matrix.set expected_ry 3 3 (Cx.of_float c2);
  check_bool "controlled ry exact" true
    (Matrix.approx_equal ~eps:1e-12 (Sim.unitary cry) expected_ry)

let test_compile_with_rotations () =
  (* Full pipeline with rotation gates in the input. *)
  let c =
    Circuit.make ~n:3
      [
        Gate.H 0;
        Gate.Rz (pi /. 8.0, 1);
        Gate.Cnot { control = 0; target = 2 };
        Gate.Phase (0.3, 2);
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      ]
  in
  let r =
    Compiler.compile
      (Compiler.default_options ~device:Device.Ibm.ibmqx4)
      (Compiler.Quantum c)
  in
  check_bool "verified" true (Compiler.verified r.Compiler.verification);
  check_bool "legal" true (Lint.is_device_legal Device.Ibm.ibmqx4 r.Compiler.optimized)

let prop_rotation_gates_unitary =
  QCheck2.Test.make ~name:"rotation matrices unitary" ~count:100
    QCheck2.Gen.(pair Testutil.gen_angle (int_bound 3))
    (fun (theta, q) ->
      List.for_all
        (fun g -> Matrix.is_unitary (Gate.embedded_matrix ~n:4 g))
        [ Gate.Rx (theta, q); Gate.Ry (theta, q); Gate.Rz (theta, q);
          Gate.Phase (theta, q) ])

let prop_phase_gate_sound =
  QCheck2.Test.make ~name:"phase_gate preserves the diagonal" ~count:100
    Testutil.gen_angle
    (fun theta ->
      let expected = Cx.make (cos theta) (sin theta) in
      match Gate.phase_gate theta 0 with
      | None -> Cx.approx_equal ~eps:1e-9 expected Cx.one
      | Some g ->
        Cx.approx_equal ~eps:1e-9 (Matrix.get (Gate.base_matrix g) 1 1) expected)

let () =
  Alcotest.run "rotations"
    [
      ( "angles",
        [
          Alcotest.test_case "canonical angle" `Quick test_canonical_angle;
          Alcotest.test_case "phase gate snapping" `Quick test_phase_gate_snapping;
          QCheck_alcotest.to_alcotest prop_phase_gate_sound;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "rotation matrices" `Quick test_rotation_matrices;
          Alcotest.test_case "adjoints" `Quick test_adjoints;
          QCheck_alcotest.to_alcotest prop_rotation_gates_unitary;
        ] );
      ( "integration",
        [
          Alcotest.test_case "optimizer fusions" `Quick test_optimizer_fusions;
          Alcotest.test_case "qmdd" `Quick test_qmdd_rotations;
          Alcotest.test_case "formats" `Quick test_formats_roundtrip;
          Alcotest.test_case "controlled rotations" `Quick
            test_controlled_rotations;
          Alcotest.test_case "compile" `Quick test_compile_with_rotations;
        ] );
    ]
