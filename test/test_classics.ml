open Mathkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let amplitude_peak circuit =
  (* Run from |0...0>, return (index, probability) of the most likely
     outcome. *)
  let n = Circuit.n_qubits circuit in
  let out = Sim.run circuit (Sim.basis_state ~n 0) in
  let best = ref 0 and best_p = ref 0.0 in
  Array.iteri
    (fun idx amp ->
      let p = Cx.norm amp ** 2.0 in
      if p > !best_p then begin
        best_p := p;
        best := idx
      end)
    out;
  (!best, !best_p)

let test_ghz () =
  let c = Benchsuite.Classics.ghz 4 in
  let out = Sim.run c (Sim.basis_state ~n:4 0) in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  check_bool "amp |0000>" true (Cx.approx_equal out.(0) expected);
  check_bool "amp |1111>" true (Cx.approx_equal out.(15) expected);
  let others =
    List.for_all (fun k -> Cx.is_zero out.(k)) (List.init 14 (fun i -> i + 1))
  in
  check_bool "no other amplitudes" true others

let test_qft_unitary_and_period () =
  let c = Benchsuite.Classics.qft 3 in
  check_bool "unitary" true (Matrix.is_unitary (Sim.unitary c));
  (* QFT of |0..0> is the uniform superposition. *)
  let out = Sim.run c (Sim.basis_state ~n:3 0) in
  check_bool "uniform" true
    (Array.for_all
       (fun amp -> abs_float (Cx.norm amp -. (1.0 /. sqrt 8.0)) < 1e-9)
       out)

let test_bernstein_vazirani () =
  List.iter
    (fun secret ->
      let c = Benchsuite.Classics.bernstein_vazirani ~secret 4 in
      let idx, p = amplitude_peak c in
      (* The data register (top 4 bits) must read the secret with
         certainty; the ancilla (last bit) is in |->. *)
      check_int (Printf.sprintf "secret %d recovered" secret) secret (idx lsr 1);
      check_bool "deterministic" true (p > 0.49))
    [ 0b0000; 0b1010; 0b1111; 0b0001 ]

let test_deutsch_jozsa () =
  (* Constant oracle: data register returns to |0..0>.  Balanced
     (parity) oracle: data register reads all-ones. *)
  let constant = Benchsuite.Classics.deutsch_jozsa_constant 3 in
  let idx_c, p_c = amplitude_peak constant in
  check_int "constant -> 000" 0 (idx_c lsr 1);
  check_bool "constant deterministic" true (p_c > 0.49);
  let balanced = Benchsuite.Classics.deutsch_jozsa_balanced 3 in
  let idx_b, p_b = amplitude_peak balanced in
  check_int "balanced -> 111" 7 (idx_b lsr 1);
  check_bool "balanced deterministic" true (p_b > 0.49)

let test_cuccaro_adder_exhaustive () =
  (* b <- a + b for every (a, b) pair at 2 and 3 bits; ancilla and a
     restored, carry-out correct. *)
  List.iter
    (fun n ->
      let c = Benchsuite.Classics.cuccaro_adder n in
      check_bool "classical" true (Sim.is_classical c);
      let wires = (2 * n) + 2 in
      for a_val = 0 to (1 lsl n) - 1 do
        for b_val = 0 to (1 lsl n) - 1 do
          let bits = Array.make wires false in
          for i = 0 to n - 1 do
            bits.(1 + i) <- (a_val lsr i) land 1 = 1;
            bits.(1 + n + i) <- (b_val lsr i) land 1 = 1
          done;
          match Sim.classical_run c bits with
          | None -> Alcotest.fail "adder not classical"
          | Some out ->
            let sum = a_val + b_val in
            let b_out = ref 0 and a_out = ref 0 in
            for i = n - 1 downto 0 do
              b_out := (!b_out * 2) + if out.(1 + n + i) then 1 else 0;
              a_out := (!a_out * 2) + if out.(1 + i) then 1 else 0
            done;
            let carry = out.((2 * n) + 1) in
            check_int
              (Printf.sprintf "%d+%d sum bits (n=%d)" a_val b_val n)
              (sum land ((1 lsl n) - 1))
              !b_out;
            check_bool "carry out" true (carry = (sum lsr n = 1));
            check_int "a restored" a_val !a_out;
            check_bool "carry-in restored" true (out.(0) = false)
        done
      done)
    [ 2; 3 ]

let test_hidden_shift () =
  List.iter
    (fun shift ->
      let c = Benchsuite.Classics.hidden_shift ~shift 4 in
      let idx, p = amplitude_peak c in
      check_bool (Printf.sprintf "shift %d deterministic" shift) true (p > 0.99);
      check_int (Printf.sprintf "shift %d recovered" shift) shift idx)
    [ 0b0000; 0b0110; 0b1011; 0b1111 ]

let test_parity_check () =
  let c = Benchsuite.Classics.parity_check 4 in
  let table = Sim.truth_table c ~inputs:[ 0; 1; 2; 3 ] ~output:4 in
  let ok = ref true in
  Array.iteri
    (fun k v ->
      let parity =
        let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
        pop k mod 2 = 1
      in
      if v <> parity then ok := false)
    table;
  check_bool "parity table" true !ok

let test_classics_compile () =
  (* Each classic workload flows through the compiler verified. *)
  let cases =
    [
      ("ghz5", Benchsuite.Classics.ghz 5, Device.Ibm.ibmqx5);
      ("qft3", Benchsuite.Classics.qft 3, Device.Ibm.ibmqx2);
      ( "bv",
        Benchsuite.Classics.bernstein_vazirani ~secret:0b101 3,
        Device.Ibm.ibmqx4 );
      ("adder2", Benchsuite.Classics.cuccaro_adder 2, Device.Ibm.ibmqx5);
      ("hs4", Benchsuite.Classics.hidden_shift ~shift:0b0110 4, Device.Ibm.ibmq_16);
    ]
  in
  List.iter
    (fun (name, circuit, device) ->
      let r =
        Compiler.compile (Compiler.default_options ~device)
          (Compiler.Quantum circuit)
      in
      check_bool (name ^ " verified") true
        (Compiler.verified r.Compiler.verification);
      check_bool (name ^ " legal") true (Lint.is_device_legal device r.Compiler.optimized))
    cases

let test_invalid_arguments () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted invalid input"
  in
  expect (fun () -> Benchsuite.Classics.ghz 1);
  expect (fun () -> Benchsuite.Classics.bernstein_vazirani ~secret:16 4);
  expect (fun () -> Benchsuite.Classics.hidden_shift ~shift:0 3);
  expect (fun () -> Benchsuite.Classics.cuccaro_adder 0)

let prop_qft_inverse =
  (* QFT composed with its inverse is the identity, for 2..4 qubits. *)
  QCheck2.Test.make ~name:"qft . qft-inverse = identity" ~count:9
    QCheck2.Gen.(int_range 2 4)
    (fun n ->
      let qft = Benchsuite.Classics.qft n in
      Mathkit.Matrix.is_identity ~eps:1e-9
        (Sim.unitary (Circuit.concat qft (Circuit.inverse qft))))

let prop_ghz_entangled =
  (* GHZ states have exactly two nonzero amplitudes, 1/sqrt2 each. *)
  QCheck2.Test.make ~name:"ghz amplitudes" ~count:6
    QCheck2.Gen.(int_range 2 6)
    (fun n ->
      let out =
        Sim.run (Benchsuite.Classics.ghz n) (Sim.basis_state ~n 0)
      in
      let nonzero =
        Array.to_list out
        |> List.filter (fun a -> Mathkit.Cx.norm a > 1e-9)
      in
      List.length nonzero = 2
      && List.for_all
           (fun a -> abs_float (Mathkit.Cx.norm a -. Mathkit.Cx.inv_sqrt2) < 1e-9)
           nonzero)

let prop_bv_recovers_any_secret =
  QCheck2.Test.make ~name:"bernstein-vazirani recovers random secrets" ~count:20
    QCheck2.Gen.(int_bound 31)
    (fun secret ->
      let c = Benchsuite.Classics.bernstein_vazirani ~secret 5 in
      let idx, p = amplitude_peak c in
      idx lsr 1 = secret && p > 0.49)

let prop_adder_random_wide =
  (* 4-bit adder on random inputs via the classical evaluator. *)
  QCheck2.Test.make ~name:"cuccaro 4-bit adder random inputs" ~count:50
    QCheck2.Gen.(pair (int_bound 15) (int_bound 15))
    (fun (a_val, b_val) ->
      let n = 4 in
      let c = Benchsuite.Classics.cuccaro_adder n in
      let wires = (2 * n) + 2 in
      let bits = Array.make wires false in
      for i = 0 to n - 1 do
        bits.(1 + i) <- (a_val lsr i) land 1 = 1;
        bits.(1 + n + i) <- (b_val lsr i) land 1 = 1
      done;
      match Sim.classical_run c bits with
      | None -> false
      | Some out ->
        let b_out = ref 0 in
        for i = n - 1 downto 0 do
          b_out := (!b_out * 2) + if out.(1 + n + i) then 1 else 0
        done;
        !b_out = (a_val + b_val) land 15
        && out.((2 * n) + 1) = (a_val + b_val >= 16))

let () =
  Alcotest.run "classics"
    [
      ( "states",
        [
          Alcotest.test_case "ghz" `Quick test_ghz;
          Alcotest.test_case "qft" `Quick test_qft_unitary_and_period;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "bernstein-vazirani" `Quick test_bernstein_vazirani;
          Alcotest.test_case "deutsch-jozsa" `Quick test_deutsch_jozsa;
          Alcotest.test_case "hidden shift" `Quick test_hidden_shift;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "cuccaro exhaustive" `Quick
            test_cuccaro_adder_exhaustive;
          Alcotest.test_case "parity" `Quick test_parity_check;
          QCheck_alcotest.to_alcotest prop_adder_random_wide;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile" `Quick test_classics_compile;
          Alcotest.test_case "validation" `Quick test_invalid_arguments;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_qft_inverse;
          QCheck_alcotest.to_alcotest prop_ghz_entangled;
          QCheck_alcotest.to_alcotest prop_bv_recovers_any_secret;
        ] );
    ]
