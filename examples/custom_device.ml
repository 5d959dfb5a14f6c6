(* Targeting custom hardware: the tool is modular (Section 4) — any
   transmon-style topology described by a coupling map can be a target.

   This example defines three 8-qubit topologies in the paper's
   dictionary notation (a line, a ring, and a star), compares their
   coupling complexities, and maps the same GHZ-plus-Toffoli circuit to
   each, showing how topology drives the mapped cost.

     dune exec examples/custom_device.exe *)

let line8 =
  Device.of_dict_string ~name:"line8" ~n_qubits:8
    "{0:[1], 1:[2], 2:[3], 3:[4], 4:[5], 5:[6], 6:[7]}"

let ring8 =
  Device.of_dict_string ~name:"ring8" ~n_qubits:8
    "{0:[1], 1:[2], 2:[3], 3:[4], 4:[5], 5:[6], 6:[7], 7:[0]}"

let star8 =
  Device.of_dict_string ~name:"star8" ~n_qubits:8
    "{0:[1,2,3,4,5,6,7]}"

(* GHZ state over 8 qubits followed by a Toffoli across the register:
   plenty of long-range interaction to stress the router. *)
let workload =
  Circuit.make ~n:8
    (Gate.H 0
    :: List.init 7 (fun i -> Gate.Cnot { control = 0; target = i + 1 })
    @ [ Gate.Toffoli { c1 = 0; c2 = 7; target = 3 } ])

let () =
  Printf.printf "workload: GHZ8 + Toffoli(0,7 -> 3), %d gates\n\n"
    (Circuit.gate_count workload);
  Printf.printf "%-7s  %-10s  %8s  %8s  %8s  %s\n" "device" "complexity"
    "unopt" "opt" "improve" "verified";
  List.iter
    (fun device ->
      let report =
        Compiler.compile
          (Compiler.default_options ~device)
          (Compiler.Quantum workload)
      in
      Printf.printf "%-7s  %-10.4f  %8.1f  %8.1f  %6.2f%%  %s\n"
        (Device.name device)
        (Device.coupling_complexity device)
        report.Compiler.unoptimized_cost report.Compiler.optimized_cost
        report.Compiler.percent_decrease
        (Compiler.verification_to_string report.Compiler.verification))
    [ star8; ring8; line8 ];
  Printf.printf
    "\nHigher coupling complexity (denser maps) means fewer reroutes and a\n\
     cheaper mapped circuit — the Section 5 observation, on custom targets.\n";

  (* Custom cost functions per technology library (Section 2.2): a
     T-dominated fault-tolerance metric, 5t + 0.1c + 0.1a, changes what
     the optimizer chases. *)
  let ft_cost = Cost.Linear { t = 5.0; cnot = 0.1; gate = 0.1 } in
  let report =
    Compiler.compile
      { (Compiler.default_options ~device:ring8) with Compiler.cost = ft_cost }
      (Compiler.Quantum workload)
  in
  Printf.printf
    "\nwith the custom cost fault-tolerance (5t + 0.1c + 0.1a) on ring8: \
     unopt %.1f -> opt %.1f (%.2f%%)\n"
    report.Compiler.unoptimized_cost
    report.Compiler.optimized_cost report.Compiler.percent_decrease
