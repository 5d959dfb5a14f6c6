(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Smith & Thornton, ISCA 2019) and times the compile of
   every benchmark.

   Usage:  main.exe [section ...]
   Sections: table1 table2 table3 table4 table5 table6 table7 table8
             table8-prefixes fig1 fig2 fig3 fig5 fig6 fig7 verify
             ablations workloads foldstates optimize passes timing
   With no argument every section runs in paper order. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fmt_cost c = Printf.sprintf "%g" c

let metrics circuit cost_fn =
  let s = Circuit.stats circuit in
  Printf.sprintf "%d/%d/%s" s.Circuit.t_count s.Circuit.gate_volume
    (fmt_cost (Cost.evaluate cost_fn circuit))

(* ------------------------------------------------------------------ *)
(* Table 1: operator transfer matrices                                  *)

let table1 () =
  section "Table 1: Common Single- and Multi-Qubit Quantum Operators";
  let show name g =
    Printf.printf "%s:\n%s\n" name
      (Mathkit.Matrix.to_string (Gate.base_matrix g))
  in
  show "Pauli-X (NOT)" (Gate.X 0);
  show "Pauli-Y" (Gate.Y 0);
  show "Pauli-Z" (Gate.Z 0);
  show "Hadamard" (Gate.H 0);
  show "Phase (S)" (Gate.S 0);
  show "pi/8 (T)" (Gate.T 0);
  show "CNOT" (Gate.Cnot { control = 0; target = 1 });
  show "CZ" (Gate.Cz (0, 1));
  show "SWAP" (Gate.Swap (0, 1));
  show "Toffoli" (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 })

(* ------------------------------------------------------------------ *)
(* Table 2: IBM Q device details                                        *)

let table2 () =
  section "Table 2: IBM Q Device Details (coupling complexity)";
  let release = function
    | "ibmqx2" -> "Jan. 2017"
    | "ibmqx3" -> "June 2017"
    | "ibmqx4" -> "Sept. 2017"
    | "ibmqx5" -> "Sept. 2017"
    | "ibmq_16" -> "Sept. 2018"
    | _ -> "-"
  in
  let paper_value = function
    | "ibmqx2" -> "0.3"
    | "ibmqx3" -> "0.0833..."
    | "ibmqx4" -> "0.3"
    | "ibmqx5" -> "0.09166..."
    | "ibmq_16" -> "0.098901..."
    | _ -> "-"
  in
  let rows =
    List.map
      (fun d ->
        [
          Device.name d;
          release (Device.name d);
          string_of_int (Device.n_qubits d);
          Printf.sprintf "%.6f" (Device.coupling_complexity d);
          paper_value (Device.name d);
        ])
      Device.Ibm.all
  in
  print_string
    (Benchsuite.Tabulate.render ~title:""
       ~header:[ "Name"; "Release"; "Qubits"; "Coupling complexity"; "Paper" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Fig. 1: QMDD of the CNOT                                             *)

let fig1 () =
  section "Fig. 1: QMDD representation of the CNOT operation";
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.gate m (Gate.Cnot { control = 0; target = 1 }) in
  print_string (Qmdd.to_ascii m e);
  Printf.printf "nodes (terminal included): %d\n" (Qmdd.node_count e);
  Printf.printf "\nGraphviz form:\n%s" (Qmdd.to_dot m e)

(* ------------------------------------------------------------------ *)
(* Fig. 2: tool architecture                                            *)

let fig2 () =
  section "Fig. 2: Synthesis and Compilation Tool Architecture";
  print_string
    "  source code (.pla | .qasm | .qc | .real)\n\
    \        |\n\
    \        |  front-end: ESOP -> NOT/CNOT/Toffoli/T_n cascade   [Esop, Cascade]\n\
    \        v\n\
    \  technology-independent circuit                             [Circuit]\n\
    \        |  technology-independent optimization               [Optimize]\n\
    \        |  T_n -> Toffoli (Barenco)                          [Decompose]\n\
    \        |  Toffoli/CZ/SWAP -> 1q + CNOT library              [Decompose]\n\
    \        |  (optional) initial qubit placement                [Place]\n\
    \        |  CNOT reversal + CTR rerouting                     [Route]\n\
    \        |  cost-driven mapped-circuit optimization           [Optimize, Cost]\n\
    \        |  QMDD formal equivalence check                     [Qmdd]\n\
    \        v\n\
    \  technology-dependent OpenQASM                              [Qasm]\n";
  (* The pipeline is not just a picture: compile one input through it
     and show the stages' gate counts. *)
  let pla = Qformats.Pla.of_string ".i 2\n.o 1\n11 1\n.e\n" in
  let r =
    Compiler.compile
      (Compiler.default_options ~device:Device.Ibm.ibmqx4)
      (Compiler.Classical pla)
  in
  Printf.printf
    "\nlive trace (AND function -> ibmqx4): cascade %d gates -> mapped %d -> optimized %d, %s\n"
    (Circuit.gate_count r.Compiler.reference)
    (Circuit.gate_count r.Compiler.unoptimized)
    (Circuit.gate_count r.Compiler.optimized)
    (Compiler.verification_to_string r.Compiler.verification)

(* ------------------------------------------------------------------ *)
(* Fig. 3: SWAP from three CNOTs                                        *)

let fig3 () =
  section "Fig. 3: Implementation of SWAP using CNOT";
  let swap = Circuit.make ~n:2 [ Gate.Swap (0, 1) ] in
  let cnots = Circuit.make ~n:2 (Decompose.swap_as_cnots 0 1) in
  List.iter (fun g -> Printf.printf "  %s\n" (Gate.to_string g)) (Circuit.gates cnots);
  Printf.printf "QMDD-equivalent to SWAP: %b\n"
    (Qmdd.equivalent ~up_to_phase:false swap cnots);
  let one_way =
    Circuit.make ~n:2
      (Decompose.swap_as_cnots
         ~allows:(fun ~control ~target -> control = 0 && target = 1)
         0 1)
  in
  Printf.printf
    "with a unidirectional coupling the SWAP costs %d gates (max 7, Sec. 4)\n"
    (Circuit.gate_count one_way)

(* ------------------------------------------------------------------ *)
(* Fig. 5: CTR on ibmqx3, control q5, target q10                        *)

let fig5 () =
  section "Fig. 5: CTR on ibmqx3 for CNOT(control=q5, target=q10)";
  let d = Device.Ibm.ibmqx3 in
  let path = Route.ctr_path d ~control:5 ~target:10 in
  Printf.printf "SWAP path of the control: %s  (paper: q5 -> q12 -> q11)\n"
    (String.concat " -> " (List.map (Printf.sprintf "q%d") path));
  let cnot = Circuit.make ~n:16 [ Gate.Cnot { control = 5; target = 10 } ] in
  Circuit.iter
    (fun g -> Printf.printf "  %s\n" (Gate.to_string g))
    (Route.route_circuit_swaps d cnot);
  let expanded = Route.route_circuit d cnot in
  Printf.printf "expanded to the native library: %d gates, legal on ibmqx3: %b\n"
    (Circuit.gate_count expanded)
    (Lint.is_device_legal d expanded);
  Printf.printf "QMDD-equivalent to the bare CNOT: %b\n"
    (Qmdd.equivalent ~up_to_phase:false cnot expanded)

(* ------------------------------------------------------------------ *)
(* Fig. 6: CNOT orientation reversal                                    *)

let fig6 () =
  section "Fig. 6: CNOT orientation reversal";
  let original = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  let reversed = Circuit.make ~n:2 (Decompose.cnot_reverse ~control:0 ~target:1) in
  List.iter (fun g -> Printf.printf "  %s\n" (Gate.to_string g)) (Circuit.gates reversed);
  Printf.printf "QMDD-equivalent to CNOT(q0,q1): %b\n"
    (Qmdd.equivalent ~up_to_phase:false original reversed)

(* ------------------------------------------------------------------ *)
(* Fig. 7: the proposed 96-qubit machine                                *)

let fig7 () =
  section "Fig. 7: Proposed 96-qubit machine (ibmqx5-inspired grid)";
  let d = Device.Ibm.big96 in
  Printf.printf "qubits: %d, directed couplings: %d, coupling complexity: %.6f\n"
    (Device.n_qubits d)
    (List.length (Device.couplings d))
    (Device.coupling_complexity d);
  Printf.printf "connected: %b\n" (Device.is_connected d);
  Printf.printf "coupling map (paper dictionary notation):\n%s\n"
    (Device.to_dict_string d)

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: single-target gates on the IBM devices               *)

type mapping_outcome =
  | Mapped of Compiler.report
  | Not_applicable of string

let compile_outcome device circuit =
  match
    Compiler.compile (Compiler.default_options ~device) (Compiler.Quantum circuit)
  with
  | r -> Mapped r
  | exception Compiler.Compile_error msg -> Not_applicable msg

let t3_devices () =
  [
    Device.Ibm.ibmqx2;
    Device.Ibm.ibmqx3;
    Device.Ibm.ibmqx4;
    Device.Ibm.ibmqx5;
    Device.Ibm.ibmq_16;
  ]

let run_table3 () =
  List.map
    (fun b ->
      let circuit = Benchsuite.Single_target.circuit b in
      let outcomes =
        List.map (fun d -> (Device.name d, compile_outcome d circuit)) (t3_devices ())
      in
      (b, circuit, outcomes))
    Benchsuite.Single_target.all

let mapping_header =
  [ "Ftn"; "Qubits"; "Tech.Ind. (T/gates/cost)" ]
  @ List.concat_map
      (fun d -> [ Device.name d ^ " unopt"; Device.name d ^ " opt" ])
      (t3_devices ())

let outcome_cells cost_fn = function
  | Not_applicable _ -> [ "N/A"; "N/A" ]
  | Mapped r ->
    [
      metrics r.Compiler.unoptimized cost_fn; metrics r.Compiler.optimized cost_fn;
    ]

let table3 results =
  section
    "Table 3: Compilation of the Single-target Gate benchmarks [23] on IBM devices";
  Printf.printf
    "(unoptimized mapping T-count/gates/cost vs optimized mapping; N/A = does not fit)\n";
  let rows =
    List.map
      (fun (b, circuit, outcomes) ->
        [
          "#" ^ b.Benchsuite.Single_target.name;
          string_of_int (Circuit.n_qubits circuit);
          metrics circuit Cost.eqn2;
        ]
        @ List.concat_map (fun (_, o) -> outcome_cells Cost.eqn2 o) outcomes)
      results
  in
  print_string (Benchsuite.Tabulate.render ~title:"" ~header:mapping_header rows)

let percent_rows results =
  let device_names = List.map Device.name (t3_devices ()) in
  let rows =
    List.map
      (fun (label, outcomes) ->
        label
        :: List.map
             (fun (_, o) ->
               match o with
               | Not_applicable _ -> "N/A"
               | Mapped r -> Printf.sprintf "%.2f" r.Compiler.percent_decrease)
             outcomes)
      results
  in
  let averages =
    List.mapi
      (fun i _ ->
        let values =
          List.filter_map
            (fun (_, outcomes) ->
              match snd (List.nth outcomes i) with
              | Mapped r -> Some r.Compiler.percent_decrease
              | Not_applicable _ -> None)
            results
        in
        if values = [] then "N/A"
        else
          Printf.sprintf "%.2f"
            (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)))
      device_names
  in
  (rows @ [ "Average" :: averages ], "Funct." :: device_names)

let table4 results =
  section "Table 4: Percent decrease of benchmark [23] cost after optimization";
  let rows, header =
    percent_rows
      (List.map
         (fun (b, _, outcomes) ->
           ("#" ^ b.Benchsuite.Single_target.name, outcomes))
         results)
  in
  print_string (Benchsuite.Tabulate.render ~title:"" ~header rows)

(* ------------------------------------------------------------------ *)
(* Tables 5 and 6: RevLib Toffoli cascades                              *)

let run_table5 () =
  List.map
    (fun b ->
      let circuit = Benchsuite.Revlib_cascades.circuit b in
      let outcomes =
        List.map (fun d -> (Device.name d, compile_outcome d circuit)) (t3_devices ())
      in
      (b, circuit, outcomes))
    Benchsuite.Revlib_cascades.all

let table5 results =
  section "Table 5: Compilation of the Toffoli-cascade benchmarks [24] on IBM devices";
  let header =
    [ "Ftn"; "Qubits"; "Largest"; "Gates" ]
    @ List.concat_map
        (fun d -> [ Device.name d ^ " unopt"; Device.name d ^ " opt" ])
        (t3_devices ())
  in
  let rows =
    List.map
      (fun (b, circuit, outcomes) ->
        [
          b.Benchsuite.Revlib_cascades.name;
          string_of_int (Circuit.n_qubits circuit);
          b.Benchsuite.Revlib_cascades.largest_gate;
          string_of_int (Circuit.gate_count circuit);
        ]
        @ List.concat_map (fun (_, o) -> outcome_cells Cost.eqn2 o) outcomes)
      results
  in
  print_string (Benchsuite.Tabulate.render ~title:"" ~header rows)

let table6 results =
  section "Table 6: Percent decrease of benchmark [24] cost after optimization";
  let rows, header =
    percent_rows
      (List.map
         (fun (b, _, outcomes) ->
           (b.Benchsuite.Revlib_cascades.name, outcomes))
         results)
  in
  print_string (Benchsuite.Tabulate.render ~title:"" ~header rows)

(* ------------------------------------------------------------------ *)
(* Tables 7 and 8: the 96-qubit experiment                              *)

let table7 () =
  section "Table 7: 96-qubit QC benchmark details";
  let rows =
    List.concat_map
      (fun b ->
        List.mapi
          (fun i (controls, target) ->
            [
              (if i = 0 then b.Benchsuite.Big_cascades.name else "");
              Printf.sprintf "%d: T%d" (i + 1)
                (b.Benchsuite.Big_cascades.n_controls + 1);
              String.concat ", " (List.map (Printf.sprintf "q%d") controls);
              Printf.sprintf "q%d" target;
            ])
          b.Benchsuite.Big_cascades.gates)
      Benchsuite.Big_cascades.all
  in
  print_string
    (Benchsuite.Tabulate.render ~title:""
       ~header:[ "Name"; "Gates"; "Controls"; "Target" ]
       rows)

(* A big96 compile under default options, traced, and its proof's
   seconds with the QMDD counters of its verify span. *)
let compile_big96 circuit =
  let trace = Trace.create () in
  let device = Device.Ibm.big96 in
  let r =
    Compiler.compile ~trace
      (Compiler.default_options ~device)
      (Compiler.Quantum (Circuit.widen circuit (Device.n_qubits device)))
  in
  let verify =
    List.find (fun sp -> sp.Trace.name = "verify") (Trace.spans trace)
  in
  let counter k = List.assoc k verify.Trace.counters in
  ( r,
    Printf.sprintf
      "%.2fs proof, %.0f QMDD checks, peak %.0f nodes, %.0f allocated"
      r.Compiler.verification_seconds (counter "qmdd_checks")
      (counter "qmdd_peak_unique_nodes")
      (counter "qmdd_allocated_nodes") )

(* Each cascade compiled to big96 under default options, so each
   output gets the staged QMDD proof.  Exits 1 unless all five are
   verified (QMDD, staged). *)
let table8 () =
  section "Table 8: 96-qubit QC benchmark compilation results";
  let rows =
    List.map
      (fun b ->
        let r, proof = compile_big96 (Benchsuite.Big_cascades.circuit b) in
        Printf.printf "  %s: synthesis %.2fs, verification %s (%s)\n%!"
          b.Benchsuite.Big_cascades.name r.Compiler.elapsed_seconds
          (Compiler.verification_to_string r.Compiler.verification)
          proof;
        ( b.Benchsuite.Big_cascades.name,
          metrics r.Compiler.unoptimized Cost.eqn2,
          metrics r.Compiler.optimized Cost.eqn2,
          r.Compiler.percent_decrease,
          r.Compiler.verification = Compiler.Verified_staged ))
      Benchsuite.Big_cascades.all
  in
  let average =
    List.fold_left (fun acc (_, _, _, p, _) -> acc +. p) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let table_rows =
    List.map
      (fun (name, unopt, opt, pct, _) ->
        [ name; unopt; opt; Printf.sprintf "%.2f" pct ])
      rows
    @ [ [ "Average"; ""; ""; Printf.sprintf "%.2f" average ] ]
  in
  print_string
    (Benchsuite.Tabulate.render ~title:""
       ~header:
         [
           "Name";
           "Unoptimized (T/gates/cost)";
           "Optimized (T/gates/cost)";
           "Percent cost decrease";
         ]
       table_rows);
  let unproved = List.filter (fun (_, _, _, _, proved) -> not proved) rows in
  if unproved <> [] then begin
    Printf.printf "%d of %d outputs not verified (QMDD, staged)\n"
      (List.length unproved) (List.length rows);
    exit 1
  end

(* The staged QMDD proof of each Table 8 cascade's first gate on big96,
   a fraction of a second for all five.  Exits 1 unless every prefix is
   proved. *)
let table8_prefixes () =
  section "Table 8 prefixes: staged QMDD proof of each cascade's first gate";
  let unproved =
    List.filter
      (fun b ->
        let controls, target = List.hd b.Benchsuite.Big_cascades.gates in
        let r, proof =
          compile_big96 (Circuit.of_gates [ Gate.mct controls target ])
        in
        Printf.printf "  %s prefix: %s (%s)\n%!"
          b.Benchsuite.Big_cascades.name
          (Compiler.verification_to_string r.Compiler.verification)
          proof;
        r.Compiler.verification <> Compiler.Verified_staged)
      Benchsuite.Big_cascades.all
  in
  if unproved <> [] then begin
    Printf.printf "%d of %d prefixes not verified (QMDD, staged)\n"
      (List.length unproved)
      (List.length Benchsuite.Big_cascades.all);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Per-pass profile of the post-optimize sweep on Table 8               *)

(* Each sweep pass alone, as the post-optimize loop runs it on a big96
   circuit. *)
let sweep_passes device =
  [
    ("cancellation", fun c -> ignore (Optimize.cancel_pass c));
    ("templates", fun c -> ignore (Rewrite.apply_templates ~device c));
    ("rotation-merge", fun c -> ignore (Rewrite.merge_rotations c));
    ("phase-merge", fun c -> ignore (Rewrite.merge_phase_polynomial c));
    ("clifford-normalize", fun c -> ignore (Rewrite.normalize_cliffords c));
    ("identity windows", fun c -> ignore (Optimize.remove_identity_windows c));
  ]

let pass_runs = 15

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* The five cascades compiled to big96 with verification skipped (the
   table8-synth workload), then each pass over two sets of their
   circuits: the fixed point (the optimized outputs, which every final
   sweep re-scans) and the unoptimized (the routed circuits, which the
   first sweep scans).  A row gives, per set, the median seconds of
   [pass_runs] runs of the pass over the set's five circuits, the runs
   of all passes interleaved, and the words one warm run allocated on
   the minor heap and straight on the major heap (arrays past 256
   words). *)
let passes () =
  section "Per-pass profile: the post-optimize sweep passes on Table 8";
  let device = Device.Ibm.big96 in
  let options =
    { (Compiler.default_options ~device) with Compiler.verification = Compiler.Skip }
  in
  let reports =
    List.map
      (fun b ->
        Compiler.compile options (Compiler.Quantum (Benchsuite.Big_cascades.circuit b)))
      Benchsuite.Big_cascades.all
  in
  let sets =
    [
      ("fixed point", List.map (fun r -> r.Compiler.optimized) reports);
      ("unoptimized", List.map (fun r -> r.Compiler.unoptimized) reports);
    ]
  in
  List.iter
    (fun (name, cs) ->
      Printf.printf "  %s: %d gates in 5 circuits\n" name
        (List.fold_left (fun acc c -> acc + Circuit.gate_count c) 0 cs))
    sets;
  (* One run of each pass over each set: a row of cells per pass. *)
  let rows =
    List.map
      (fun (name, pass) -> (name, List.map (fun (_, cs) () -> List.iter pass cs) sets))
      (sweep_passes device)
  in
  (* A warm run of each cell, whose allocation is the cell's.  The
     major heap's count is the words it took in less those promoted
     into it, read after a minor collection on both sides; it can be
     off by a few thousand words. *)
  let allocation run =
    Gc.minor ();
    let minor = Gc.minor_words () and s = Gc.quick_stat () in
    run ();
    Gc.minor ();
    let minor' = Gc.minor_words () and s' = Gc.quick_stat () in
    ( minor' -. minor,
      s'.Gc.major_words -. s.Gc.major_words
      -. (s'.Gc.promoted_words -. s.Gc.promoted_words) )
  in
  let words = List.map (fun (_, cells) -> List.map allocation cells) rows in
  let times = List.map (fun (_, cells) -> List.map (fun _ -> ref []) cells) rows in
  for _ = 1 to pass_runs do
    List.iter2
      (fun (_, cells) samples ->
        List.iter2
          (fun run samples ->
            let t0 = Trace.now_ns () in
            run ();
            samples :=
              (Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9) :: !samples)
          cells samples)
      rows times
  done;
  (* Millions of words to two places; the major count's error can be
     just below zero. *)
  let mwords w = Printf.sprintf "%.2f" (Float.max 0.0 (Float.round (w /. 1e4)) /. 100.0) in
  let table =
    List.map2
      (fun ((name, _), words) times ->
        name
        :: List.concat
             (List.map2
                (fun (minor, major) t ->
                  [ Printf.sprintf "%.4f" (median !t); mwords minor; mwords major ])
                words times))
      (List.combine rows words) times
  in
  print_string
    (Benchsuite.Tabulate.render ~title:""
       ~header:
         (("Pass (median of " ^ string_of_int pass_runs ^ ")")
         :: List.concat_map
              (fun (name, _) ->
                [ name ^ " s"; name ^ " minor Mw"; name ^ " major Mw" ])
              sets)
       table)

(* ------------------------------------------------------------------ *)
(* Verification section: the paper's claim that every output is
   QMDD-checked                                                         *)

let verify_section results3 results5 =
  section "Verification: QMDD equivalence status of every compiled output";
  let count = ref 0 and verified = ref 0 in
  let scan label outcomes =
    List.iter
      (fun (dev, o) ->
        match o with
        | Not_applicable _ -> ()
        | Mapped r ->
          incr count;
          (match r.Compiler.verification with
          | Compiler.Verified | Compiler.Verified_staged
          | Compiler.Verified_sim ->
            incr verified
          | Compiler.Mismatch -> Printf.printf "  MISMATCH: %s on %s\n" label dev
          | Compiler.Budget_exceeded ->
            Printf.printf "  budget exceeded: %s on %s\n" label dev
          | Compiler.Unverified reason ->
            Printf.printf "  unverified (%s): %s on %s\n" reason label dev
          | Compiler.Skipped -> Printf.printf "  skipped: %s on %s\n" label dev))
      outcomes
  in
  List.iter
    (fun (b, _, outcomes) -> scan ("#" ^ b.Benchsuite.Single_target.name) outcomes)
    results3;
  List.iter
    (fun (b, _, outcomes) -> scan b.Benchsuite.Revlib_cascades.name outcomes)
    results5;
  Printf.printf "verified %d / %d compiled outputs\n" !verified !count

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)

let ablations () =
  section "Ablations: design-choice studies (not in the paper's tables)";
  let benchmarks =
    [
      ("#0117 -> ibmqx5", Benchsuite.Single_target.circuit
         (Benchsuite.Single_target.find "0117"), Device.Ibm.ibmqx5);
      ("4gt13-v1_93 -> ibmq_16", Benchsuite.Revlib_cascades.circuit
         (Benchsuite.Revlib_cascades.find "4gt13-v1_93"), Device.Ibm.ibmq_16);
      ("T6_b -> big96", Benchsuite.Big_cascades.circuit
         (Benchsuite.Big_cascades.find "T6_b"), Device.Ibm.big96);
    ]
  in
  let compile_with tweak (_, circuit, device) =
    let base =
      { (Compiler.default_options ~device) with Compiler.verification = Compiler.Skip }
    in
    let r = Compiler.compile (tweak base) (Compiler.Quantum circuit) in
    r.Compiler.optimized_cost
  in

  Printf.printf "\n-- A. router: CTR (paper) vs layout-tracking baseline --\n";
  Printf.printf "%-24s %14s %14s\n" "benchmark" "CTR" "tracking";
  List.iter
    (fun b ->
      let (name, _, _) = b in
      let ctr = compile_with (fun o -> o) b in
      let tracking =
        compile_with (fun o -> { o with Compiler.router = Compiler.Tracking }) b
      in
      Printf.printf "%-24s %14.1f %14.1f\n%!" name ctr tracking)
    benchmarks;

  Printf.printf "\n-- B. initial placement (the paper's future work) off vs on --\n";
  Printf.printf "%-24s %14s %14s\n" "benchmark" "identity" "placed";
  List.iter
    (fun b ->
      let (name, _, _) = b in
      let off = compile_with (fun o -> o) b in
      let on =
        compile_with (fun o -> { o with Compiler.use_placement = true }) b
      in
      Printf.printf "%-24s %14.1f %14.1f\n%!" name off on)
    benchmarks;

  Printf.printf
    "\n-- C. optimization stages (cost of the mapped output) --\n";
  Printf.printf "%-24s %10s %10s %10s\n" "benchmark" "none" "post" "pre+post";
  List.iter
    (fun b ->
      let (name, _, _) = b in
      let none =
        compile_with
          (fun o ->
            { o with Compiler.pre_optimize = false; Compiler.post_optimize = false })
          b
      in
      let post =
        compile_with (fun o -> { o with Compiler.pre_optimize = false }) b
      in
      let both = compile_with (fun o -> o) b in
      Printf.printf "%-24s %10.1f %10.1f %10.1f\n%!" name none post both)
    benchmarks;

  Printf.printf
    "\n-- D. estimated success probability (synthetic calibration, Sec. 2.2) --\n";
  Printf.printf "%-24s %14s %14s %14s %14s\n" "benchmark" "CTR" "weighted CTR"
    "tracking" "CTR+placement";
  List.iter
    (fun (name, circuit, device) ->
      let cal = Calibration.synthetic device in
      let success tweak =
        let base =
          { (Compiler.default_options ~device) with Compiler.verification = Compiler.Skip }
        in
        let r = Compiler.compile (tweak base) (Compiler.Quantum circuit) in
        Calibration.success_probability cal r.Compiler.optimized
      in
      let base = success (fun o -> o) in
      let weighted =
        success (fun o ->
            {
              o with
              Compiler.router = Compiler.Weighted_ctr cal;
            })
      in
      let tracking =
        success (fun o -> { o with Compiler.router = Compiler.Tracking })
      in
      let placed =
        success (fun o -> { o with Compiler.use_placement = true })
      in
      Printf.printf "%-24s %14.4g %14.4g %14.4g %14.4g\n%!" name base weighted
        tracking placed)
    benchmarks;
  Printf.printf
    "\n(Fewer rerouted CNOTs translate directly into higher run-through\n\
     probability; the log-fidelity cost function is available as\n\
     Cost.Log_fidelity for optimization against a specific\n\
     calibration.)\n"

(* ------------------------------------------------------------------ *)
(* Beyond-paper workloads: classic algorithm circuits                   *)

let workloads () =
  section "Workloads: classic algorithm circuits through the full pipeline";
  let cases =
    [
      ("GHZ-8", Benchsuite.Classics.ghz 8);
      ("QFT-4", Benchsuite.Classics.qft 4);
      ("BV-6 (secret 0b101101)", Benchsuite.Classics.bernstein_vazirani ~secret:0b101101 6);
      ("DJ-6 balanced", Benchsuite.Classics.deutsch_jozsa_balanced 6);
      ("Cuccaro adder 3-bit", Benchsuite.Classics.cuccaro_adder 3);
      ("Hidden shift 6 (0b011010)", Benchsuite.Classics.hidden_shift ~shift:0b011010 6);
      ("Parity-8", Benchsuite.Classics.parity_check 8);
    ]
  in
  let rows =
    List.map
      (fun (name, circuit) ->
        let device =
          if Circuit.n_qubits circuit <= 14 then Device.Ibm.ibmq_16
          else Device.Ibm.ibmqx5
        in
        let r =
          Compiler.compile (Compiler.default_options ~device)
            (Compiler.Quantum circuit)
        in
        [
          name;
          Device.name device;
          string_of_int (Circuit.gate_count circuit);
          string_of_int (Circuit.depth circuit);
          metrics r.Compiler.unoptimized Cost.eqn2;
          metrics r.Compiler.optimized Cost.eqn2;
          Printf.sprintf "%.1f%%" r.Compiler.percent_decrease;
          Compiler.verification_to_string r.Compiler.verification;
        ])
      cases
  in
  print_string
    (Benchsuite.Tabulate.render ~title:""
       ~header:
         [
           "workload"; "device"; "gates"; "depth"; "unopt (T/g/cost)";
           "opt (T/g/cost)"; "improve"; "verified";
         ]
       rows)

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline: BENCH_compile.json                        *)

(* One traced compile per benchmark circuit; the JSON document is the
   regression baseline CI archives — per-pass wall times, gate metrics
   and pass counters for every benchmark, parseable without scraping
   the human tables above.

   The suite is a flat spec list so it can fan across domains
   (--jobs): every spec is independent, results are assembled in spec
   order, and progress lines are printed after the whole suite, so the
   document and the stdout section are byte-identical at every job
   count (timing fields aside — compare_baseline.py strips those). *)
let bench_specs () =
  let default_verification device =
    (Compiler.default_options ~device).Compiler.verification
  in
  List.map
    (fun b ->
      let device = Device.Ibm.ibmqx5 in
      ( "single-target",
        b.Benchsuite.Single_target.name,
        device,
        default_verification device,
        fun () -> Benchsuite.Single_target.circuit b ))
    Benchsuite.Single_target.all
  @ List.map
      (fun b ->
        let device = Device.Ibm.ibmqx5 in
        ( "revlib",
          b.Benchsuite.Revlib_cascades.name,
          device,
          default_verification device,
          fun () -> Benchsuite.Revlib_cascades.circuit b ))
      Benchsuite.Revlib_cascades.all
  @ (* The baseline is about compile timings, so the 96-qubit cascades
       run unverified here (table8 runs their full proofs). *)
  List.map
    (fun b ->
      ( "big-cascades",
        b.Benchsuite.Big_cascades.name,
        Device.Ibm.big96,
        Compiler.Skip,
        fun () -> Benchsuite.Big_cascades.circuit b ))
    Benchsuite.Big_cascades.all

let compile_spec (suite, name, device, verification, circuit) =
  let trace = Trace.create () in
  let options =
    { (Compiler.default_options ~device) with Compiler.verification }
  in
  let report = Compiler.compile ~trace options (Compiler.Quantum (circuit ())) in
  let line =
    Printf.sprintf "  %-12s %-12s -> %-7s %8.3fs  %s" suite name
      (Device.name device) report.Compiler.elapsed_seconds
      (Compiler.verification_to_string report.Compiler.verification)
  in
  let json =
    Compiler.report_to_json
      ~meta:
        [
          ("suite", Trace.Json.String suite);
          ("name", Trace.Json.String name);
          ("device", Trace.Json.String (Device.name device));
        ]
      report
  in
  (line, json)

(* Runs the whole compile suite at the given fan-out; returns the wall
   time of the suite and the per-benchmark results in spec order. *)
let compile_suite ?(quiet = false) ~jobs () =
  let t0 = Trace.now_ns () in
  let results = Parallel.map_list ~jobs compile_spec (bench_specs ()) in
  let wall = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
  if not quiet then List.iter (fun (line, _) -> print_endline line) results;
  (wall, results)

let bench_compile_doc results =
  Trace.Json.Obj
    [
      ("schema", Trace.Json.String "qsynth-bench-compile/v1");
      ("generated_at_unix", Trace.Json.Float (Unix.time ()));
      ("benchmarks", Trace.Json.List (List.map snd results));
    ]

let bench_compile_file = "BENCH_compile.json"

let write_bench_compile ~jobs () =
  Printf.printf "\ncompile baselines (%s, %d job(s)):\n%!" bench_compile_file
    jobs;
  let wall, results = compile_suite ~jobs () in
  Out_channel.with_open_text bench_compile_file (fun oc ->
      output_string oc (Trace.Json.to_string ~pretty:true (bench_compile_doc results));
      output_char oc '\n');
  Printf.printf "wrote %s (%.2fs wall)\n%!" bench_compile_file wall;
  wall

(* ------------------------------------------------------------------ *)
(* Bench history: an append-only per-commit datapoint store turning
   BENCH_compile.json from a snapshot into a trajectory.  Each timing
   run with --history DIR appends one line to DIR/history.jsonl
   (schema qsynth-bench-history/v1) carrying the sequential and
   --jobs-N wall times of the compile suite plus the speedup, and
   mirrors it to DIR/latest.json for artifact upload.
   bench/compare_baseline.py --history DIR flags scaling
   regressions against the stored trajectory. *)

let commit_id () =
  match Sys.getenv_opt "QSC_COMMIT" with
  | Some c when String.trim c <> "" -> String.trim c
  | _ -> (
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      (match (status, String.trim line) with
      | Unix.WEXITED 0, c when c <> "" -> c
      | _ -> "unknown")
    | exception Unix.Unix_error _ -> "unknown")

let append_history ~dir ~jobs ~seq_wall ~par_wall ~benchmarks =
  let datapoint =
    Trace.Json.Obj
      [
        ("schema", Trace.Json.String "qsynth-bench-history/v1");
        ("commit", Trace.Json.String (commit_id ()));
        ("generated_at_unix", Trace.Json.Float (Unix.time ()));
        ("jobs", Trace.Json.Int jobs);
        ("benchmarks", Trace.Json.Int benchmarks);
        ("seq_wall_seconds", Trace.Json.Float seq_wall);
        ("par_wall_seconds", Trace.Json.Float par_wall);
        ( "speedup",
          Trace.Json.Float (if par_wall > 0.0 then seq_wall /. par_wall else 1.0)
        );
      ]
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store = Filename.concat dir "history.jsonl" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 store in
  output_string oc (Trace.Json.to_string datapoint);
  output_char oc '\n';
  close_out oc;
  Out_channel.with_open_text (Filename.concat dir "latest.json") (fun oc ->
      output_string oc (Trace.Json.to_string ~pretty:true datapoint);
      output_char oc '\n');
  Printf.printf
    "bench history: seq %.2fs, jobs=%d %.2fs, speedup %.2fx -> %s\n%!" seq_wall
    jobs par_wall
    (if par_wall > 0.0 then seq_wall /. par_wall else 1.0)
    store

(* ------------------------------------------------------------------ *)
(* Timing: the compile suite's wall times, written to
   BENCH_compile.json, which CI guards against the committed baseline;
   perfbench times the Table 8 synthesis and verification. *)

let timing ?(jobs = 1) ?history () =
  section "Timing: compile wall time of every benchmark";
  Printf.printf
    "(The paper reports ~10^-2 s for most benchmarks, none above ~6.5 s.)\n";
  let par_wall = write_bench_compile ~jobs () in
  match history with
  | None -> ()
  | Some dir ->
    (* The trajectory needs both ends of the speedup ratio: reuse the
       measured run for one end and time a quiet run for the other. *)
    let seq_wall =
      if jobs <= 1 then par_wall else fst (compile_suite ~quiet:true ~jobs:1 ())
    in
    append_history ~dir ~jobs ~seq_wall ~par_wall
      ~benchmarks:(List.length (bench_specs ()))

(* ------------------------------------------------------------------ *)
(* fold-states: Optimize.fold_known_states over the full 34-benchmark
   suite with the zero-state oracle on.  Exits nonzero when any oracle
   check fails, or when not a single benchmark strictly improves — the
   regression guard CI runs alongside the bench baselines. *)

let foldstates () =
  section "fold-states: abstract-interpretation folding (oracle-checked)";
  let run name circuit =
    let before_gates = Circuit.gate_count circuit in
    let before_cost = Cost.evaluate Cost.eqn2 circuit in
    let f = Optimize.fold_known_states circuit in
    let after_gates = Circuit.gate_count f.Optimize.circuit in
    let after_cost = Cost.evaluate Cost.eqn2 f.Optimize.circuit in
    Printf.printf
      "  %-16s gates %5d -> %5d  cost %10s -> %10s  -%d deleted -%d demoted  \
       %s\n"
      name before_gates after_gates (fmt_cost before_cost)
      (fmt_cost after_cost) f.Optimize.deleted f.Optimize.demoted
      (if f.Optimize.reverted <> None then "ORACLE-REJECTED"
       else if f.Optimize.checked then "oracle ok"
       else "no facts");
    ( f.Optimize.reverted = None,
      after_gates < before_gates || after_cost < before_cost -. 1e-9 )
  in
  let outcomes =
    List.map
      (fun b ->
        run
          ("#" ^ b.Benchsuite.Single_target.name)
          (Benchsuite.Single_target.circuit b))
      Benchsuite.Single_target.all
    @ List.map
        (fun b ->
          run b.Benchsuite.Revlib_cascades.name
            (Benchsuite.Revlib_cascades.circuit b))
        Benchsuite.Revlib_cascades.all
    @ List.map
        (fun b ->
          run b.Benchsuite.Big_cascades.name
            (Benchsuite.Big_cascades.circuit b))
        Benchsuite.Big_cascades.all
  in
  let rejected = List.exists (fun (ok, _) -> not ok) outcomes in
  let improved = List.length (List.filter (fun (_, i) -> i) outcomes) in
  Printf.printf "\n%d of %d benchmarks strictly improved; oracle %s\n" improved
    (List.length outcomes)
    (if rejected then "REJECTED at least one rewrite"
     else "accepted every rewrite");
  if rejected || improved = 0 then exit 1

(* ------------------------------------------------------------------ *)
(* optimize: the rewrite-template tier over the full 34-benchmark
   suite, after native lowering (where the T gates live).  For every
   benchmark the circuit is optimized once with the tier disabled and
   once with the default rule selection; the per-benchmark gate
   volume / T-count / Eqn. 2 cost both ways plus the per-rule
   application counts land in BENCH_optimize.json
   (qsynth-bench-optimize/v1), the regression baseline
   compare_baseline.py --optimize guards.  Small widths are certified
   by the exact QMDD oracle.  Exits nonzero when the oracle rejects,
   or when fewer than MIN_IMPROVED benchmarks strictly improve. *)

let optimize_min_improved = 25

let optimize_spec (suite, name, circuit) =
  (* Barenco lowering of the widest cascades borrows a work qubit; the
     compiler gets one from the device register, so hand the bare
     circuit the same courtesy. *)
  let rec lower extra c =
    let widened = Circuit.make ~n:(Circuit.n_qubits c + extra) (Circuit.gates c) in
    match Decompose.to_native widened with
    | native -> native
    | exception Decompose.Not_enough_qubits _ when extra < 3 ->
      lower (extra + 1) c
  in
  let native = lower 0 (circuit ()) in
  let base = Optimize.optimize ~rules:Rewrite.empty_selection native in
  let trace = Trace.create () in
  let tier = Optimize.optimize ~trace native in
  let sb = Circuit.stats base and st = Circuit.stats tier in
  let cost_b = Cost.evaluate Cost.eqn2 base
  and cost_t = Cost.evaluate Cost.eqn2 tier in
  let improved =
    st.Circuit.t_count < sb.Circuit.t_count || cost_t < cost_b -. 1e-9
  in
  (* The dense oracle caps out early; QMDD certifies up to mid widths,
     and the 96-qubit cascades rely on the per-pass cost guard plus the
     strict-mode compile path exercised elsewhere. *)
  let oracle =
    if Circuit.n_qubits native <= 10 then
      if Qmdd.equivalent ~up_to_phase:false native tier then `Ok else `Rejected
    else `Skipped
  in
  let rule_counts =
    List.filter_map
      (fun (k, v) ->
        let p = "rewrite/" in
        let pl = String.length p in
        if String.length k > pl && String.sub k 0 pl = p then
          Some (String.sub k pl (String.length k - pl), v)
        else None)
      (Trace.counter_totals trace)
    |> List.sort compare
  in
  let line =
    Printf.sprintf
      "  %-12s %-12s gates %5d -> %5d  T %4d -> %4d  cost %9.1f -> %9.1f  %s%s"
      suite name sb.Circuit.gate_volume st.Circuit.gate_volume
      sb.Circuit.t_count st.Circuit.t_count cost_b cost_t
      (match oracle with
      | `Ok -> "oracle ok"
      | `Rejected -> "ORACLE-REJECTED"
      | `Skipped -> "oracle skipped")
      (if improved then "" else "  (no gain)")
  in
  let stats_json s cost =
    Trace.Json.Obj
      [
        ("gate_volume", Trace.Json.Int s.Circuit.gate_volume);
        ("t_count", Trace.Json.Int s.Circuit.t_count);
        ("cnot_count", Trace.Json.Int s.Circuit.cnot_count);
        ("cost", Trace.Json.Float cost);
      ]
  in
  let json =
    Trace.Json.Obj
      [
        ("suite", Trace.Json.String suite);
        ("name", Trace.Json.String name);
        ("qubits", Trace.Json.Int (Circuit.n_qubits native));
        ("without_tier", stats_json sb cost_b);
        ("with_tier", stats_json st cost_t);
        ("improved", Trace.Json.Bool improved);
        ( "oracle",
          Trace.Json.String
            (match oracle with
            | `Ok -> "ok"
            | `Rejected -> "rejected"
            | `Skipped -> "skipped") );
        ( "rules",
          Trace.Json.Obj
            (List.map (fun (k, v) -> (k, Trace.Json.Float v)) rule_counts) );
      ]
  in
  (line, json, improved, oracle = `Rejected)

let optimize_bench_file = "BENCH_optimize.json"

let optimize_section ~jobs () =
  section "Optimization: rewrite-template tier over the benchmark suite";
  let specs =
    List.map
      (fun b ->
        ( "single-target",
          b.Benchsuite.Single_target.name,
          fun () -> Benchsuite.Single_target.circuit b ))
      Benchsuite.Single_target.all
    @ List.map
        (fun b ->
          ( "revlib",
            b.Benchsuite.Revlib_cascades.name,
            fun () -> Benchsuite.Revlib_cascades.circuit b ))
        Benchsuite.Revlib_cascades.all
    @ List.map
        (fun b ->
          ( "big-cascades",
            b.Benchsuite.Big_cascades.name,
            fun () -> Benchsuite.Big_cascades.circuit b ))
        Benchsuite.Big_cascades.all
  in
  let results = Parallel.map_list ~jobs optimize_spec specs in
  List.iter (fun (line, _, _, _) -> print_endline line) results;
  let improved =
    List.length (List.filter (fun (_, _, i, _) -> i) results)
  in
  let rejected = List.exists (fun (_, _, _, r) -> r) results in
  let doc =
    Trace.Json.Obj
      [
        ("schema", Trace.Json.String "qsynth-bench-optimize/v1");
        ("generated_at_unix", Trace.Json.Float (Unix.time ()));
        ("improved", Trace.Json.Int improved);
        ("total", Trace.Json.Int (List.length results));
        ( "benchmarks",
          Trace.Json.List (List.map (fun (_, j, _, _) -> j) results) );
      ]
  in
  Out_channel.with_open_text optimize_bench_file (fun oc ->
      output_string oc (Trace.Json.to_string ~pretty:true doc);
      output_char oc '\n');
  Printf.printf
    "\n%d of %d benchmarks strictly improved (T-count or cost); oracle %s\n\
     wrote %s\n"
    improved (List.length results)
    (if rejected then "REJECTED at least one tier output"
     else "accepted every checked output")
    optimize_bench_file;
  if rejected || improved < optimize_min_improved then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let jobs = ref (Parallel.default_jobs ()) in
  let history = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse acc rest
      | Some _ | None ->
        prerr_endline "bench: --jobs wants a positive integer";
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "bench: --jobs wants a value";
      exit 2
    | "--history" :: dir :: rest ->
      history := Some dir;
      parse acc rest
    | [ "--history" ] ->
      prerr_endline "bench: --history wants a directory";
      exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let want s = args = [] || List.mem s args in
  let results3 = ref None and results5 = ref None in
  let get3 () =
    match !results3 with
    | Some r -> r
    | None ->
      let r = run_table3 () in
      results3 := Some r;
      r
  in
  let get5 () =
    match !results5 with
    | Some r -> r
    | None ->
      let r = run_table5 () in
      results5 := Some r;
      r
  in
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "fig1" then fig1 ();
  if want "fig2" then fig2 ();
  if want "fig3" then fig3 ();
  if want "fig5" then fig5 ();
  if want "fig6" then fig6 ();
  if want "fig7" then fig7 ();
  if want "table3" then table3 (get3 ());
  if want "table4" then table4 (get3 ());
  if want "table5" then table5 (get5 ());
  if want "table6" then table6 (get5 ());
  if want "table7" then table7 ();
  if want "table8" then table8 ();
  if want "table8-prefixes" then table8_prefixes ();
  if want "verify" then verify_section (get3 ()) (get5 ());
  if want "ablations" then ablations ();
  if want "workloads" then workloads ();
  if want "foldstates" then foldstates ();
  if want "optimize" then optimize_section ~jobs:!jobs ();
  if want "passes" then passes ();
  if want "timing" then timing ~jobs:!jobs ?history:!history ();
  Printf.printf "\nDone.\n"
