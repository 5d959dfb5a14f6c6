(* Quickstart: build a small quantum circuit with the library API,
   compile it to a real IBM device, and inspect the verified result.

     dune exec examples/quickstart.exe *)

let () =
  (* A 3-qubit circuit: Bell pair + Toffoli.  The Toffoli is not native
     on IBM transmons and qubit connectivity is restricted, so the
     compiler must decompose, reroute and optimize it. *)
  let circuit =
    Circuit.make ~n:3
      [
        Gate.H 0;
        Gate.Cnot { control = 0; target = 1 };
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      ]
  in
  Printf.printf "input %s\n" (Circuit.to_string circuit);

  (* Pick the 5-qubit ibmqx4 (Tenerife) as the target. *)
  let device = Device.Ibm.ibmqx4 in
  Printf.printf "target: %s, coupling map %s, coupling complexity %.3f\n\n"
    (Device.name device)
    (Device.to_dict_string device)
    (Device.coupling_complexity device);

  (* Compile with default options: Eqn. 2 cost, optimization on, QMDD
     formal verification on. *)
  let options = Compiler.default_options ~device in
  let report = Compiler.compile options (Compiler.Quantum circuit) in
  Format.printf "%a@." Compiler.pp_report report;

  (* Every CNOT in the output respects the coupling map. *)
  assert (Lint.is_device_legal device report.Compiler.optimized);
  assert (report.Compiler.verification = Compiler.Verified);

  (* The final artifact is OpenQASM 2.0, ready for the device. *)
  print_endline "mapped circuit (OpenQASM 2.0):";
  print_string (Compiler.emit_qasm report);

  (* Independent spot check with the dense simulator: the mapped circuit
     implements the same unitary as the input on the device register. *)
  let equivalent =
    Sim.equivalent ~up_to_phase:false report.Compiler.reference
      report.Compiler.optimized
  in
  Printf.printf "\ndense-simulator cross-check: %b\n" equivalent
