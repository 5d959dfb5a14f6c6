(* qsc — the quantum synthesis compiler command-line front end.

   Subcommands:
     compile     map a circuit or switching function to a device
     devices     list the built-in device library
     complexity  coupling complexity of a custom map
     qmdd        print the QMDD of a circuit
     check       formally compare two circuit files
     lint        static diagnostics and device-legality findings
     analyze     abstract-interpretation state table and proved facts
     fuzz        metamorphic property-fuzz the whole pipeline
     serve       persistent compile service with a report cache *)

open Cmdliner

let device_conv =
  let parse s =
    match Device.find s with
    | d -> Ok d
    | exception Not_found ->
      Error
        (`Msg
          (Printf.sprintf "unknown device %S (try `qsc devices'); built-ins: %s"
             s
             (String.concat ", " (List.map fst (Device.registry ())))))
  in
  Arg.conv (parse, fun fmt d -> Format.pp_print_string fmt (Device.name d))

(* A NaN or infinite cost weight prices every circuit the same
   non-number, which no optimizer sweep can lower: reject it as
   misuse. *)
let finite_float_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when Float.is_finite f -> Ok f
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not a finite number" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* Shared --jobs flag: domain fan-out for the embarrassingly parallel
   loops (batch compiles, fuzz cases).  The unset flag falls back to
   QSC_JOBS, then to 1 — and every consumer guarantees byte-identical
   output at any value, so parallelism is purely a throughput knob.
   `qsc serve` has its own --jobs (see [Serve.Default.jobs]). *)
let jobs_term what =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains for %s (default: $(b,QSC_JOBS) when set, else 1 \
              = sequential).  Output is byte-identical at every N."
             what))

(* [map_ok f xs] is the [Ok] values of [f] over [xs], in order, or the
   first [Error]. *)
let map_ok f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok v, Ok vs -> Ok (v :: vs))
    xs (Ok [])

let resolve_jobs = function
  | Some n when n < 1 -> Error (`Msg "--jobs must be >= 1")
  | opt -> Ok (Parallel.resolve_jobs opt)

(* --device, or --map with --qubits: the target of `compile` and
   `lint`, [None] when neither is given. *)
let device_term ~doc =
  let device =
    Arg.(
      value
      & opt (some device_conv) None
      & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)
  in
  let custom_map =
    Arg.(
      value
      & opt (some string) None
      & info [ "map" ] ~docv:"DICT"
          ~doc:
            "Custom coupling map in the paper's dictionary notation, e.g. \
             '{0:[1,2], 1:[2]}'.  Requires $(b,--qubits); exclusive with \
             $(b,--device).")
  in
  let qubits =
    Arg.(
      value
      & opt (some int) None
      & info [ "qubits" ] ~docv:"N" ~doc:"Register size of the custom map.")
  in
  let resolve device custom_map qubits =
    match (device, custom_map, qubits) with
    | Some d, None, _ -> Ok (Some d)
    | None, Some map, Some n -> (
      match Device.of_dict_string ~name:"custom" ~n_qubits:n map with
      | d -> Ok (Some d)
      | exception Invalid_argument msg -> Error (`Msg msg))
    | None, Some _, None -> Error (`Msg "--map requires --qubits")
    | None, None, _ -> Ok None
    | Some _, Some _, _ -> Error (`Msg "--device and --map are exclusive")
  in
  Term.(const resolve $ device $ custom_map $ qubits)

(* --- compile --- *)

(* Failure-semantics contract of `qsc compile` (documented in README
   "Failure semantics"):
     exit 0    compiled (possibly degraded under a budget; possibly
               Unverified in fallback mode)
     exit 123  reported failure: a structured diagnostic, a formal
               MISMATCH, or (batch mode) any failed input — details on
               stderr, or in the batch JSON on stdout
     exit 124  command-line misuse (cmdliner)
     exit 125  internal error (unexpected exception; a bug) *)

let compile_cmd =
  let inputs_opt =
    Arg.(
      value
      & opt_all file []
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:
            "Input circuit (.qasm, .qc, .real) or switching function (.pla). \
             Repeatable; positional FILE arguments are accepted too.")
  in
  let inputs_pos =
    Arg.(
      value
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Input files (same formats as $(b,--input)).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the mapped circuit as OpenQASM 2.0 (default: stdout).")
  in
  let no_optimize =
    Arg.(value & flag & info [ "no-optimize" ] ~doc:"Skip post-mapping optimization.")
  in
  let fold_states =
    Arg.(
      value & flag
      & info [ "fold-states" ]
          ~doc:
            "After post-optimization, delete gates the abstract interpreter \
             proves dead and demote gates with proved-constant controls \
             (see $(b,qsc analyze)).  Preserves the state prepared from \
             |0...0>, not the full unitary; every rewrite is re-checked by \
             an exact zero-state oracle.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Audit every inter-stage handoff with the static pass contracts \
             (native library after decomposition, device legality after \
             routing, no gate-volume growth after optimization); abort on \
             the first violation.  Also checks every optimizer sweep with \
             the equivalence oracle; a sweep it rejects or cannot settle \
             within the compile's budget is dropped, and the stage is \
             reported DEGRADED.")
  in
  let place =
    Arg.(
      value & flag
      & info [ "place" ]
          ~doc:
            "Choose an initial qubit placement that shortens SWAP routes \
             before mapping.")
  in
  let router =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("ctr", `Ctr);
                  ("tracking", `Tracking);
                  ("fidelity", `Fidelity);
                ]))
          None
      & info [ "router" ] ~docv:"KIND"
          ~doc:
            "Rerouting strategy: $(b,ctr) (the default: the paper's \
             swap-and-return), $(b,tracking) (accumulate SWAPs, restore once \
             at the end), or $(b,fidelity) (CTR with \
             synthetic-calibration-weighted paths).")
  in
  let weights =
    Arg.(
      value
      & opt
          (some (t3 finite_float_conv finite_float_conv finite_float_conv))
          None
      & info [ "cost-weights" ] ~docv:"T,CNOT,GATE"
          ~doc:
            "Custom linear cost-function weights (T count, CNOT count, gate \
             volume), each a finite number.  Default is the paper's Eqn. 2: \
             0.5,0.25,1.")
  in
  let trace_mode =
    Arg.(
      value
      & opt
          ~vopt:(Some `Text)
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None
      & info [ "trace" ] ~docv:"FORMAT"
          ~doc:
            "Record per-pass spans (wall time, gate volume, depth, T count, \
             CNOT count, cost, pass counters).  $(b,text) appends a table to \
             the report; $(b,json) replaces all stdout output with one JSON \
             document (use $(b,-o) for the QASM).  Defaults to $(b,text) \
             when given without a value.")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "k"; "keep-going" ]
          ~doc:
            "Batch mode: compile every input even when some fail, and print \
             one aggregated JSON report (schema $(b,qsynth-batch/v1)) on \
             stdout.  Exits 0 when every input compiled and verified, 123 \
             otherwise.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per compile.  Once past, optional stages are \
             skipped and optimization stops between sweeps with the best \
             circuit so far; the report marks those stages DEGRADED and the \
             compile still succeeds.")
  in
  let opt_iterations =
    Arg.(
      value
      & opt (some int) None
      & info [ "opt-iterations" ] ~docv:"N"
          ~doc:
            "Cap fixpoint sweeps per optimization stage; a capped stage \
             keeps its best circuit so far and is marked DEGRADED.")
  in
  let swap_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "swap-budget" ] ~docv:"N"
          ~doc:
            "Cap routing SWAP insertions; once exhausted, remaining \
             uncoupled CNOTs stay as written (unitary preserved, not \
             device-legal) and the route stage is marked DEGRADED.")
  in
  let node_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "QMDD node budget for verification (default 8000000; 0 = \
             unlimited).")
  in
  let max_sim_qubits =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sim-qubits" ] ~docv:"N"
          ~doc:
            "Widest register the dense-matrix fallback oracle accepts \
             (default 10; $(b,--verify fallback) only).")
  in
  let verify_mode =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("fallback", `Fallback); ("qmdd", `Qmdd); ("skip", `Skip) ]))
          None
      & info [ "verify" ] ~docv:"MODE"
          ~doc:
            "Verification mode: $(b,fallback) (the default: QMDD, then the \
             staged QMDD proof, then a dense-matrix oracle up to \
             $(b,--max-sim-qubits) qubits, then 'unverified' with the reason \
             — never aborts), $(b,qmdd) (QMDD only; reports budget \
             exhaustion), or $(b,skip).")
  in
  let inject_specs =
    Arg.(
      value
      & opt_all string []
      & info [ "inject" ] ~docv:"FAULT@STAGE"
          ~doc:
            "Fault-injection harness for robustness testing: corrupt the \
             named stage's output, e.g. $(b,raise@route) or \
             $(b,nan-angle@decompose).  Faults: raise, nan-angle, \
             out-of-range-wire, truncate.  Repeatable; deterministic under \
             $(b,--inject-seed).")
  in
  let inject_seed =
    Arg.(
      value
      & opt int Faultinject.default_seed
      & info [ "inject-seed" ] ~docv:"N"
          ~doc:"Seed for $(b,--inject) randomness.")
  in
  let opt_rules =
    Arg.(
      value & opt string ""
      & info [ "opt-rules" ] ~docv:"LIST"
          ~doc:
            "Rewrite rules for the optimizer's sweeps, as for $(b,qsc \
             optimize --opt-rules): $(b,all)/$(b,none)/$(b,default) reset \
             the set, a name adds, $(b,-name) removes.  $(b,none) leaves \
             inverse-pair cancellation and identity-window removal only.")
  in
  let run inputs_opt inputs_pos device output no_optimize fold_states strict
      weights place router trace_mode keep_going deadline opt_iterations
      swap_budget node_budget max_sim_qubits verify_mode inject_specs
      inject_seed opt_rules jobs_opt =
    let inputs = inputs_opt @ inputs_pos in
    let device =
      match device with
      | Ok None -> Error (`Msg "choose a target: --device or --map/--qubits")
      | Ok (Some d) -> Ok d
      | Error _ as e -> e
    in
    let parse_inject () =
      let parse s =
        match Faultinject.spec_of_string s with
        | Ok spec -> Ok spec
        | Error `No_at ->
          Error (`Msg (Printf.sprintf "bad --inject %S (want FAULT@STAGE)" s))
        | Error (`Unknown_fault f) ->
          Error (`Msg (Printf.sprintf "unknown fault %S in --inject" f))
        | Error (`Unknown_stage st) ->
          Error (`Msg (Printf.sprintf "unknown stage %S in --inject" st))
      in
      map_ok parse inject_specs
    in
    let parse_rules () =
      match Rewrite.parse_selection opt_rules with
      | Ok rules -> Ok rules
      | Error msg -> Error (`Msg (Printf.sprintf "--opt-rules: %s" msg))
    in
    match (device, parse_inject (), resolve_jobs jobs_opt, parse_rules ()) with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e ->
      Error e
    | Ok dev, Ok specs, Ok jobs, Ok rewrite_rules ->
      if (match jobs_opt with Some n -> n > 1 | None -> false) && not keep_going
      then Error (`Msg "--jobs applies to batch mode (add --keep-going)")
      else if inputs = [] then
        Error (`Msg "no input files (give FILE or -i FILE)")
      else if output <> None && List.length inputs > 1 then
        Error (`Msg "--output requires a single input")
      else begin
        (* The default compile, changed only where a flag says so. *)
        let o = Compiler.default_options ~device:dev in
        let options =
          {
            o with
            Compiler.cost =
              (match weights with
              | None -> o.Compiler.cost
              | Some (t, cnot, gate) -> Cost.Linear { t; cnot; gate });
            router =
              (match router with
              | None -> o.Compiler.router
              | Some `Ctr -> Compiler.Ctr
              | Some `Tracking -> Compiler.Tracking
              | Some `Fidelity ->
                Compiler.Weighted_ctr (Calibration.synthetic dev));
            use_placement = o.Compiler.use_placement || place;
            post_optimize = o.Compiler.post_optimize && not no_optimize;
            fold_states = o.Compiler.fold_states || fold_states;
            check_contracts = o.Compiler.check_contracts || strict;
            rewrite_rules;
            verification =
              Compiler.verification_mode ?mode:verify_mode ?node_budget
                ?max_sim_qubits ();
            (* The default budgets are all unlimited, as is an unset
               budget flag. *)
            budgets =
              {
                Compiler.deadline_seconds = deadline;
                max_optimize_iterations = opt_iterations;
                swap_budget;
              };
          }
        in
        (* Fresh harness per input so every file sees the same faults
           under the same seed. *)
        let compile_one ?(trace = Trace.disabled) input =
          let inject =
            if specs = [] then None
            else
              Some
                (Faultinject.hook (Faultinject.create ~seed:inject_seed specs))
          in
          match Compiler.parse_file_checked input with
          | Error d -> Error [ d ]
          | Ok parsed -> Compiler.compile_checked ~trace ?inject options parsed
        in
        if keep_going then begin
          (* Batch mode owns stdout with one aggregated JSON document;
             per-input failures are collected, never fatal mid-run. *)
          let module J = Trace.Json in
          (* Each lane is self-contained (own fault harness, own parse),
             and results are assembled in input order, so the batch
             document is byte-identical at every --jobs. *)
          let results =
            Parallel.map_list ~jobs
              (fun input -> (input, compile_one input))
              inputs
          in
          let status = function
            | Ok r ->
              if r.Compiler.verification = Compiler.Mismatch then "mismatch"
              else "ok"
            | Error _ -> "error"
          in
          let result_json (input, res) =
            let common = [ ("input", J.String input); ("status", J.String (status res)) ] in
            match res with
            | Ok r ->
              (* Three of the report's own fields, as the report renders
                 them. *)
              let fields =
                match Compiler.report_to_json r with J.Obj f -> f | _ -> []
              in
              J.Obj
                (common
                @ List.filter
                    (fun (k, _) ->
                      List.mem k [ "verification"; "degraded"; "diagnostics" ])
                    fields)
            | Error ds ->
              J.Obj
                (common
                @ [ ("diagnostics", J.List (List.map Diagnostic.to_json ds)) ])
          in
          let total = List.length results in
          let failed =
            List.length (List.filter (fun (_, r) -> status r <> "ok") results)
          in
          let degraded_count =
            List.length
              (List.filter
                 (fun (_, r) ->
                   match r with Ok r -> Compiler.degraded r | Error _ -> false)
                 results)
          in
          let doc =
            J.Obj
              [
                ("schema", J.String "qsynth-batch/v1");
                ("device", J.String (Device.name dev));
                ("total", J.Int total);
                ("failed", J.Int failed);
                ("degraded", J.Int degraded_count);
                ("results", J.List (List.map result_json results));
              ]
          in
          print_endline (J.to_string ~pretty:true doc);
          (match (output, results) with
          | Some path, [ (_, Ok r) ] ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Compiler.emit_qasm r))
          | _ -> ());
          if failed = 0 then Ok ()
          else
            Error (`Msg (Printf.sprintf "%d of %d input(s) failed" failed total))
        end
        else
          (* Sequential mode: full per-file output, stop at the first
             failure. *)
          let compile_and_print input =
            let trace =
              match trace_mode with
              | None -> Trace.disabled
              | Some _ -> Trace.create ()
            in
            if List.length inputs > 1 then Format.printf "== %s ==@." input;
            match compile_one ~trace input with
            | Error ds ->
              Error
                (`Msg (String.concat "\n" (List.map Diagnostic.to_string ds)))
            | Ok report ->
              let qasm = Compiler.emit_qasm report in
              let write_output () =
                match output with
                | Some path ->
                  Out_channel.with_open_text path (fun oc ->
                      output_string oc qasm);
                  Some path
                | None -> None
              in
              (match trace_mode with
              | Some `Json ->
                (* JSON mode owns stdout: the document is the only output,
                   so it can be piped straight into a parser.  QASM goes
                   to -o. *)
                let written = write_output () in
                let meta =
                  [
                    ("schema", Trace.Json.String "qsynth-trace/v1");
                    ("input", Trace.Json.String input);
                    ("device", Trace.Json.String (Device.name dev));
                  ]
                  @
                  match written with
                  | Some path -> [ ("output", Trace.Json.String path) ]
                  | None -> []
                in
                print_endline
                  (Trace.Json.to_string ~pretty:true
                     (Compiler.report_to_json ~meta report))
              | Some `Text | None ->
                Format.printf "%a" Compiler.pp_report report;
                (match trace_mode with
                | Some `Text -> print_string (Trace.to_text report.Compiler.trace)
                | Some `Json | None -> ());
                (match write_output () with
                | Some path -> Format.printf "wrote %s@." path
                | None -> print_string qasm));
              if report.Compiler.verification = Compiler.Mismatch then
                Error (`Msg "formal verification FAILED: output is not equivalent")
              else Ok ()
          in
          List.fold_left
            (fun acc input ->
              match acc with Error _ -> acc | Ok () -> compile_and_print input)
            (Ok ()) inputs
      end
  in
  let term =
    Term.(
      const run $ inputs_opt $ inputs_pos
      $ device_term ~doc:"Target device (see $(b,qsc devices))."
      $ output $ no_optimize $ fold_states $ strict $ weights
      $ place $ router $ trace_mode $ keep_going $ deadline $ opt_iterations
      $ swap_budget $ node_budget $ max_sim_qubits $ verify_mode
      $ inject_specs $ inject_seed $ opt_rules
      $ jobs_term "batch-mode compiles (--keep-going)")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Synthesize a technology-dependent realization for a device.  \
          Exits 0 on success (including budget-degraded and unverified \
          outputs), 123 on reported failures (diagnostics, MISMATCH, failed \
          batch inputs), 124 on command-line misuse, 125 on internal errors.")
    term

(* --- optimize --- *)

let optimize_cmd =
  let input =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Input circuit (.qasm, .qc, .real).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the optimized circuit as OpenQASM 2.0 (default: stdout).")
  in
  let device =
    Arg.(
      value
      & opt (some device_conv) None
      & info [ "d"; "device" ] ~docv:"DEVICE"
          ~doc:
            "Optional target device: direction-changing templates refuse \
             CNOT orientations the coupling map forbids, and \
             $(b,--objective fidelity) calibrates against it.")
  in
  let opt_rules =
    Arg.(
      value & opt string ""
      & info [ "opt-rules" ] ~docv:"LIST"
          ~doc:
            "Rewrite rules for the optimizer's sweeps (see \
             $(b,--list-rules)), comma-separated, left to right: \
             $(b,all)/$(b,none)/$(b,default) reset the set, a name adds, \
             $(b,-name) removes.  $(b,none) leaves inverse-pair \
             cancellation and identity-window removal only.")
  in
  let objective =
    Arg.(
      value
      & opt
          (enum
             [
               ("eqn2", `Eqn2); ("gate-volume", `Volume);
               ("t-weighted", `T_weighted); ("fidelity", `Fidelity);
             ])
          `Eqn2
      & info [ "objective" ] ~docv:"KIND"
          ~doc:
            "Cost objective that guards every pass (a pass whose result \
             costs more is reverted): $(b,eqn2) (the paper's 0.5t + 0.25c \
             + a), $(b,gate-volume), $(b,t-weighted) (10t + c + a), or \
             $(b,fidelity) (synthetic-calibration log-fidelity; requires \
             $(b,--device)).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Report per-rule application counts after the summary.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Certify every kept sweep with the exact equivalence oracle; \
             a rejected sweep is reverted and ends the run, and the \
             summary counts reverted sweeps.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:"Print the rewrite-rule registry and exit.")
  in
  let run input output device rules_str objective explain check list_rules =
    if list_rules then begin
      Format.printf "%-22s %-36s %-14s %s@." "RULE" "PATTERN" "REPLACEMENT"
        "SIDE CONDITION";
      List.iter
        (fun r ->
          Format.printf "%-22s %-36s %-14s %s@." r.Rewrite.name
            r.Rewrite.pattern_doc r.Rewrite.replacement_doc r.Rewrite.guard_doc)
        Rewrite.rules;
      Format.printf "%-22s engine passes, toggleable by the same names@."
        (String.concat ", " Rewrite.engine_pass_names);
      Ok ()
    end
    else
      match input with
      | None -> Error (`Msg "no input file (give FILE, or --list-rules)")
      | Some path -> (
        let objective =
          match (objective, device) with
          | `Eqn2, _ -> Ok Cost.eqn2
          | `Volume, _ -> Ok Cost.gate_volume
          | `T_weighted, _ -> Ok Cost.t_weighted
          | `Fidelity, Some d ->
            Ok (Cost.Log_fidelity (Calibration.synthetic d))
          | `Fidelity, None -> Error (`Msg "--objective fidelity requires --device")
        in
        match (objective, Rewrite.parse_selection rules_str) with
        | Error e, _ -> Error e
        | _, Error msg -> Error (`Msg (Printf.sprintf "--opt-rules: %s" msg))
        | Ok cost, Ok rules -> (
          match Compiler.parse_file_checked path with
          | Error d -> Error (`Msg (Diagnostic.to_string d))
          | Ok (Compiler.Classical _) ->
            Error
              (`Msg
                 "qsc optimize takes a circuit; compile the switching \
                  function first (qsc compile)")
          | Ok (Compiler.Quantum circuit) ->
            let trace = Trace.create () in
            let check = if check then Some Oracle.default_budget else None in
            let outcome =
              Optimize.optimize_budgeted ?device ~cost ~trace ~rules ?check
                circuit
            in
            let optimized = outcome.Optimize.circuit in
            let before = Circuit.stats circuit
            and after = Circuit.stats optimized in
            Format.printf "%-14s %10s %10s@." "" "before" "after";
            let row name f =
              Format.printf "%-14s %10d %10d@." name (f before) (f after)
            in
            row "gate volume" (fun s -> s.Circuit.gate_volume);
            row "T count" (fun s -> s.Circuit.t_count);
            row "CNOT count" (fun s -> s.Circuit.cnot_count);
            Format.printf "%-14s %10.2f %10.2f  (%s)@." "cost"
              (Cost.evaluate cost circuit)
              (Cost.evaluate cost optimized)
              (Cost.to_string cost);
            if check <> None then
              Format.printf "sweeps reverted by the oracle: %s@."
                (match outcome.Optimize.reverted with
                | None -> "0"
                | Some why -> "1 (" ^ why ^ ")");
            if explain then begin
              let fired =
                List.filter_map
                  (fun (k, v) ->
                    let p = String.length "rewrite/" in
                    if String.starts_with ~prefix:"rewrite/" k then
                      Some (String.sub k p (String.length k - p), v)
                    else None)
                  (Trace.counter_totals trace)
              in
              if fired = [] then Format.printf "no template rewrites fired@."
              else
                List.iter
                  (fun (name, v) -> Format.printf "  %-24s %6.0f@." name v)
                  (List.sort compare fired)
            end;
            let qasm = Qformats.Qasm.to_string optimized in
            (match output with
            | Some path ->
              Out_channel.with_open_text path (fun oc -> output_string oc qasm);
              Format.printf "wrote %s@." path
            | None -> print_string qasm);
            Ok ()))
  in
  let term =
    Term.(
      const run $ input $ output $ device $ opt_rules $ objective $ explain
      $ check $ list_rules)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the optimizer on a circuit without mapping it, under a \
          selectable cost objective.  Each sweep runs inverse-pair \
          cancellation, the rewrite templates, rotation-merge, \
          phase-merge, clifford-normalize and identity-window removal; \
          a pass is kept only if it does not raise the objective, and \
          sweeps repeat while the cost strictly falls.")
    term

(* --- devices --- *)

let devices_cmd =
  let run () =
    List.iter
      (fun (_, d) ->
        Format.printf "%-8s  %3d qubits  %3d couplings  complexity %.6f@."
          (Device.name d) (Device.n_qubits d)
          (List.length (Device.couplings d))
          (Device.coupling_complexity d))
      (Device.registry ());
    Ok ()
  in
  Cmd.v
    (Cmd.info "devices" ~doc:"List the built-in device library (Table 2).")
    Term.(const run $ const ())

(* --- complexity --- *)

let complexity_cmd =
  let map_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DICT" ~doc:"Coupling map, e.g. '{0:[1,2], 1:[2]}'.")
  in
  let qubits =
    Arg.(
      required
      & opt (some int) None
      & info [ "qubits" ] ~docv:"N" ~doc:"Register size.")
  in
  let run map_str qubits =
    match Device.of_dict_string ~name:"custom" ~n_qubits:qubits map_str with
    | d ->
      Format.printf "couplings: %d@." (List.length (Device.couplings d));
      Format.printf "coupling complexity: %.6f@." (Device.coupling_complexity d);
      Format.printf "connected: %b@." (Device.is_connected d);
      Ok ()
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Cmd.v
    (Cmd.info "complexity"
       ~doc:"Coupling complexity of a custom map (Section 3 metric).")
    Term.(const run $ map_arg $ qubits)

(* --- qmdd --- *)

let circuit_of_file path =
  match Compiler.parse_file path with
  | Compiler.Quantum c -> Ok c
  | Compiler.Classical _ ->
    Error (`Msg "expected a circuit file, got a switching function")
  | exception Compiler.Compile_error msg -> Error (`Msg msg)

(* The circuit file `qmdd`, `analyze`, `stats` and `run` take. *)
let circuit_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Circuit file (.qasm, .qc, .real).")

let qmdd_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  let run input dot =
    match circuit_of_file input with
    | Error e -> Error e
    | Ok c ->
      let m = Qmdd.create ~n:(Circuit.n_qubits c) in
      let e = Qmdd.of_circuit m c in
      if dot then print_string (Qmdd.to_dot m e)
      else begin
        print_string (Qmdd.to_ascii m e);
        Format.printf "nodes: %d@." (Qmdd.node_count e)
      end;
      Ok ()
  in
  Cmd.v
    (Cmd.info "qmdd" ~doc:"Build and print the QMDD of a circuit (Fig. 1 style).")
    Term.(const run $ circuit_file $ dot)

(* --- check --- *)

let check_cmd =
  let file k =
    Arg.(
      required
      & pos k (some file) None
      & info [] ~docv:(Printf.sprintf "FILE%d" (k + 1)) ~doc:"Circuit file.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ] ~doc:"Require exact equality (no global-phase slack).")
  in
  let run f1 f2 exact =
    match (circuit_of_file f1, circuit_of_file f2) with
    | Error e, _ | _, Error e -> Error e
    | Ok a, Ok b ->
      let n = max (Circuit.n_qubits a) (Circuit.n_qubits b) in
      let a = Circuit.widen a n and b = Circuit.widen b n in
      let eq = Qmdd.equivalent ~up_to_phase:(not exact) a b in
      Format.printf "%s@." (if eq then "EQUIVALENT" else "NOT equivalent");
      if eq then Ok () else Error (`Msg "circuits differ")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Formally compare two circuits with QMDDs.")
    Term.(const run $ file 0 $ file 1 $ exact)

(* --- lint --- *)

(* The one JSON writer for lint findings, shared by `qsc lint --json`
   and `qsc analyze --json`: each finding goes through the total
   [Lint.to_diagnostic] conversion so the array reuses the Diagnostic
   JSON conventions (stage/kind/severity/file) verbatim. *)
let findings_to_json ~file findings =
  Trace.Json.List
    (List.map
       (fun f ->
         Diagnostic.to_json
           (Lint.to_diagnostic ~file ~stage:Diagnostic.Driver f))
       findings)

let lint_cmd =
  let input =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Circuit file (.qasm, .qc, .real).")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"CODES"
          ~doc:
            "Comma-separated rule codes to enable (default: all); see \
             $(b,--list-rules).")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule table and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the findings as a JSON array of diagnostics \
             (stage/kind/severity/file/message) instead of text; the exit \
             code is unchanged.")
  in
  let run input device rules list_rules json =
    if list_rules then begin
      List.iter
        (fun r ->
          Format.printf "%-21s %s@." (Lint.Rule.code r) (Lint.Rule.describe r))
        Lint.Rule.all;
      Ok ()
    end
    else
      let parse_rules () =
        match rules with
        | None -> Ok None
        | Some spec ->
          let resolve code =
            Option.to_result (Lint.Rule.of_code code)
              ~none:
                (`Msg
                  (Printf.sprintf
                     "unknown lint rule %S (see `qsc lint --list-rules')" code))
          in
          Result.map Option.some
            (map_ok resolve
               (List.map String.trim (String.split_on_char ',' spec)))
      in
      match (input, parse_rules (), device) with
      | None, _, _ -> Error (`Msg "missing FILE argument (or use --list-rules)")
      | _, Error e, _ | _, _, Error e -> Error e
      | Some input, Ok rules, Ok device -> (
        match circuit_of_file input with
        | Error e -> Error e
        | Ok c ->
          let findings = Lint.lint ?rules ?device c in
          let count sev =
            List.length
              (List.filter (fun f -> f.Lint.severity = sev) findings)
          in
          if json then
            print_endline
              (Trace.Json.to_string ~pretty:true
                 (findings_to_json ~file:input findings))
          else begin
            List.iter
              (fun f -> Format.printf "%a@." Lint.pp_finding f)
              findings;
            Format.printf "%d error(s), %d warning(s), %d info@."
              (count Lint.Error) (count Lint.Warning) (count Lint.Info)
          end;
          if Lint.has_errors findings then
            Error
              (`Msg
                (Printf.sprintf "lint failed: %d error finding(s) in %s"
                   (count Lint.Error) input))
          else Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static circuit diagnostics and device-legality findings; exits \
          nonzero when any error-severity finding fires.")
    Term.(
      const run $ input
      $ device_term
          ~doc:
            "Also check device legality: native library only, every CNOT on \
             an allowed directed coupling."
      $ rules $ list_rules $ json)

(* --- analyze --- *)

let analyze_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON document (per-gate rows, final state, partition, \
             liveness, and the semantic lint findings in the same array \
             format as $(b,qsc lint --json)).")
  in
  let run input json =
    match circuit_of_file input with
    | Error e -> Error e
    | Ok c ->
      let r = Absint.analyze c in
      if json then begin
        let module J = Trace.Json in
        let basis b = J.String (Absint.Basis.to_string b) in
        let opt_int = function None -> J.Null | Some i -> J.Int i in
        let row (row : Absint.row) =
          J.Obj
            [
              ("index", J.Int row.Absint.index);
              ("gate", J.String (Gate.to_string row.Absint.gate));
              ( "after",
                J.List (Array.to_list (Array.map basis row.Absint.after)) );
              ("classes", J.Int row.Absint.classes);
              ( "fact",
                match row.Absint.fact with
                | Some f -> J.String (Absint.fact_to_string f)
                | None -> J.Null );
            ]
        in
        let liveness (l : Absint.wire_liveness) =
          J.Obj
            [
              ("first_use", opt_int l.Absint.first_use);
              ("last_use", opt_int l.Absint.last_use);
              ("final", basis l.Absint.final);
              ("restored", J.Bool l.Absint.restored);
            ]
        in
        let doc =
          J.Obj
            [
              ("schema", J.String "qsynth-analyze/v1");
              ("input", J.String input);
              ("n_qubits", J.Int r.Absint.n);
              ("rows", J.List (List.map row r.Absint.rows));
              ( "final",
                J.List (Array.to_list (Array.map basis r.Absint.final)) );
              ( "partition",
                J.List
                  (Array.to_list
                     (Array.map (fun l -> J.Int l) r.Absint.partition)) );
              ( "classes",
                J.List
                  (List.map
                     (fun ws -> J.List (List.map (fun w -> J.Int w) ws))
                     r.Absint.classes) );
              ( "liveness",
                J.List
                  (Array.to_list (Array.map liveness r.Absint.liveness)) );
              ("merges", J.Int r.Absint.merges);
              ("findings", findings_to_json ~file:input (Lint.semantic c));
            ]
        in
        print_endline (J.to_string ~pretty:true doc)
      end
      else begin
        print_string (Absint.state_table r);
        if r.Absint.rows <> [] then print_newline ();
        print_string (Absint.summary r)
      end;
      Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the abstract interpreter over a circuit: per-gate basis-state \
          table, entanglement-partition evolution, ancilla liveness, and \
          the facts it proves (dead gates, constant controls) under the \
          all-|0> input assumption.")
    Term.(const run $ circuit_file $ json)

(* --- fuzz --- *)

(* Failure-semantics: same contract as `qsc compile` — exit 0 when every
   property holds on every case, 123 when any property fails (the shrunk
   counterexample, its replay seed, and the repro-file path go to
   stdout), 124 on misuse, 125 on internal errors. *)

let fuzz_cmd =
  let seed =
    Arg.(
      value
      & opt int Fuzz.default_seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base seed.  Case $(i,i) of every property draws from a state \
             derived deterministically from it, and every reported failure \
             prints the per-case seed that replays it with $(b,--count 1).")
  in
  let count =
    Arg.(
      value
      & opt int Fuzz.default_count
      & info [ "count" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "Cases per property (default %d)."
               Fuzz.default_count))
  in
  let sizes = Fuzz.default_config in
  let max_qubits =
    Arg.(
      value
      & opt int sizes.Fuzz.max_qubits
      & info [ "max-qubits" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Widest generated register (default %d; the dense oracle caps \
                some properties lower)."
               sizes.Fuzz.max_qubits))
  in
  let max_gates =
    Arg.(
      value
      & opt int sizes.Fuzz.max_gates
      & info [ "max-gates" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "Longest generated gate list (default %d)."
               sizes.Fuzz.max_gates))
  in
  let properties =
    Arg.(
      value
      & opt_all string []
      & info [ "property" ] ~docv:"NAME"
          ~doc:
            "Fuzz only the named property.  Repeatable; default is the whole \
             library (see $(b,--list)).")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock cap over the whole run; checked between cases, so a \
             run out of time reports the cases finished so far and still \
             exits by their verdict.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt string "test/corpus/fuzz"
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:
            "Where failing cases are persisted as self-contained repro files \
             (format $(b,qsynth-fuzz-repro/v1)), one per failure, so every \
             fuzz-found bug becomes a permanent regression test.  Pass the \
             empty string to skip writing.")
  in
  let list_props =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"Print the property table (name, guarded paper section, \
                description) and exit.")
  in
  let write_repro dir (f : Fuzz.failure) =
    let rec mkdir_p d =
      if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
      else begin
        mkdir_p (Filename.dirname d);
        try Sys.mkdir d 0o755 with Sys_error _ -> ()
      end
    in
    try
      mkdir_p dir;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%d.repro" f.Fuzz.property f.Fuzz.seed)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Fuzz.repro_to_string f));
      Some path
    with Sys_error msg ->
      Printf.eprintf "qsc: could not write repro under %s: %s\n" dir msg;
      None
  in
  let run seed count max_qubits max_gates properties time_budget corpus_dir
      list_props jobs_opt =
    if list_props then begin
      List.iter
        (fun (p : Fuzz.Property.t) ->
          Format.printf "%-26s %-38s %s@." p.Fuzz.Property.name
            p.Fuzz.Property.paper p.Fuzz.Property.doc)
        Fuzz.Property.all;
      Ok ()
    end
    else if count <= 0 then Error (`Msg "--count must be positive")
    else if max_qubits < 1 then Error (`Msg "--max-qubits must be at least 1")
    else
      let resolve name =
        Option.to_result (Fuzz.Property.find name)
          ~none:
            (`Msg
              (Printf.sprintf "unknown property %S (try `qsc fuzz --list')"
                 name))
      in
      match
        ( (match properties with
          | [] -> Ok Fuzz.Property.all
          | names -> map_ok resolve names),
          resolve_jobs jobs_opt )
      with
      | Error e, _ | _, Error e -> Error e
      | Ok props, Ok jobs ->
        let config = { Fuzz.max_qubits; max_gates } in
        let summaries =
          Fuzz.run ~config ~seed ~count ?time_budget ~jobs ~log:print_endline
            props
        in
        let failures =
          List.concat_map (fun s -> s.Fuzz.failures) summaries
        in
        if failures = [] then Ok ()
        else begin
          List.iter
            (fun f ->
              print_newline ();
              print_string (Fuzz.failure_to_string f);
              if corpus_dir <> "" then
                match write_repro corpus_dir f with
                | Some path -> Format.printf "repro written: %s@." path
                | None -> ())
            failures;
          let failed_props =
            List.filter (fun s -> s.Fuzz.failures <> []) summaries
          in
          Error
            (`Msg
              (Printf.sprintf "%d case(s) failed across %d propert%s"
                 (List.length failures)
                 (List.length failed_props)
                 (if List.length failed_props = 1 then "y" else "ies")))
        end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential and metamorphic property-fuzz the pipeline: random \
          circuits, devices and switching functions through compile, \
          optimize, route, place, emit/parse and the ESOP front end, \
          checked against the dense-matrix and QMDD oracles.  Failures are \
          shrunk to a minimal counterexample, printed with their exact \
          replay seed, and persisted as repro files.  Exits 0 when every \
          property holds, 123 otherwise.")
    Term.(
      const run $ seed $ count $ max_qubits $ max_gates $ properties
      $ time_budget $ corpus_dir $ list_props
      $ jobs_term "the per-property case loop")

(* --- stats --- *)

let stats_cmd =
  let device =
    Arg.(
      value
      & opt (some device_conv) None
      & info [ "d"; "device" ] ~docv:"DEVICE"
          ~doc:
            "Also report coupling-map legality and estimated success \
             probability under this device's synthetic calibration.")
  in
  let run input device =
    match circuit_of_file input with
    | Error e -> Error e
    | Ok c ->
      let s = Circuit.full_stats c in
      Format.printf "qubits:       %d@." (Circuit.n_qubits c);
      Format.printf "gates:        %d@." s.Circuit.fs_gate_volume;
      Format.printf "T count:      %d@." s.Circuit.fs_t_count;
      Format.printf "CNOT count:   %d@." s.Circuit.fs_cnot_count;
      Format.printf "depth:        %d@." s.Circuit.fs_depth;
      Format.printf "T depth:      %d@." s.Circuit.fs_t_depth;
      Format.printf "eqn2 cost:    %g@." (Cost.evaluate Cost.eqn2 c);
      Format.printf "native-only:  %b@." (Circuit.uses_only_native c);
      (match device with
      | None -> ()
      | Some d ->
        let legal = Lint.is_device_legal d c in
        Format.printf "legal on %s: %b@." (Device.name d) legal;
        if legal then begin
          let cal = Calibration.synthetic d in
          Format.printf "est. success probability: %.6g@."
            (Calibration.success_probability cal c)
        end);
      Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Circuit metrics: counts, depth, T-depth, Eqn. 2 cost.")
    Term.(const run $ circuit_file $ device)

(* --- run --- *)

let run_cmd =
  let start =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"BITS"
          ~doc:"Initial basis state as a bit string (default: all zeros).")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "amplitude" ] ~docv:"BITS"
          ~doc:"Print the amplitude of one basis state of the result.")
  in
  let parse_bits ~n s =
    if String.length s <> n then
      Error (`Msg (Printf.sprintf "expected %d bits, got %S" n s))
    else
      let bits = Array.make n false in
      let ok = ref true in
      String.iteri
        (fun i ch ->
          match ch with
          | '0' -> ()
          | '1' -> bits.(i) <- true
          | _ -> ok := false)
        s;
      if !ok then Ok bits else Error (`Msg (Printf.sprintf "bad bit string %S" s))
  in
  let bits_to_string bits =
    String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')
  in
  let run input start query =
    match circuit_of_file input with
    | Error e -> Error e
    | Ok c -> (
      let n = Circuit.n_qubits c in
      let from =
        match start with
        | None -> Ok (Array.make n false)
        | Some s -> parse_bits ~n s
      in
      match from with
      | Error e -> Error e
      | Ok from -> (
        let m = Qmdd.create ~n in
        let state = Qmdd.run_basis m c ~from in
        Format.printf "input  |%s>@." (bits_to_string from);
        (match Qmdd.classical_outcome m state ~from with
        | Some out -> Format.printf "output |%s>  (basis state)@." (bits_to_string out)
        | None ->
          Format.printf "output is a superposition@.";
          if n <= 10 then begin
            (* Enumerate and print everything with noticeable weight. *)
            for k = 0 to (1 lsl n) - 1 do
              let bits = Array.init n (fun q -> (k lsr (n - 1 - q)) land 1 = 1) in
              let amp = Qmdd.amplitude m state ~from bits in
              let p = Mathkit.Cx.norm amp ** 2.0 in
              if p > 1e-6 then
                Format.printf "  |%s>  amp %s  p=%.6f@." (bits_to_string bits)
                  (Mathkit.Cx.to_string amp) p
            done
          end
          else
            Format.printf "(register too wide to enumerate; use --amplitude)@.");
        match query with
        | None -> Ok ()
        | Some s -> (
          match parse_bits ~n s with
          | Error e -> Error e
          | Ok bits ->
            Format.printf "amplitude <%s| = %s@." s
              (Mathkit.Cx.to_string (Qmdd.amplitude m state ~from bits));
            Ok ())))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate a circuit on a basis input via QMDDs (works at any \
          register width for classical-outcome circuits).")
    Term.(const run $ circuit_file $ start $ query)

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on loopback TCP (127.0.0.1) port $(docv).")
  in
  let cache_size =
    Arg.(
      value
      & opt int Serve.Default.cache_capacity
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Report-cache capacity in entries (LRU eviction past it; 0 \
             disables caching).")
  in
  let max_deadline =
    Arg.(
      value
      & opt float Serve.Default.max_deadline_seconds
      & info [ "max-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget ceiling per request; requests asking for \
             more are clamped, requests asking for nothing get this.")
  in
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Stop after answering $(docv) requests (bounded runs for tests \
             and CI; default: serve until a shutdown request).")
  in
  let cache_bytes =
    Arg.(
      value
      & opt int Serve.Default.max_cache_bytes
      & info [ "cache-bytes" ] ~docv:"BYTES"
          ~doc:
            "Report-cache byte budget (sum of serialized payloads; LRU \
             eviction past it; 0 removes the byte bound).")
  in
  let persist_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist-dir" ] ~docv:"DIR"
          ~doc:
            "Spill the report cache to $(docv) (atomic one-file-per-digest \
             writes) and warm a fresh daemon from it, so reports survive a \
             crash or restart.")
  in
  let max_workers =
    Arg.(
      value
      & opt int Serve.Default.max_workers
      & info [ "max-workers" ] ~docv:"N"
          ~doc:"Connection worker pool size (fixed; the pool never grows).")
  in
  let max_pending =
    Arg.(
      value
      & opt int Serve.Default.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission-queue bound; connections beyond it are shed with an \
             \"overloaded\" response instead of queuing without limit.")
  in
  let read_timeout =
    Arg.(
      value
      & opt float Serve.Default.read_timeout_seconds
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection deadline for reading one request frame (and for \
             writing the response); stalled peers are disconnected.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int Serve.Default.max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:
            "Request-line cap; longer frames are answered with a 124 \
             protocol diagnostic instead of being buffered without bound.")
  in
  let watchdog_grace =
    Arg.(
      value
      & opt float Serve.Default.watchdog_grace_seconds
      & info [ "watchdog-grace" ] ~docv:"SECONDS"
          ~doc:
            "How long past the --max-deadline ceiling a request may wait \
             for any one thing (its turn to compile, or its compile) \
             before the watchdog answers it 125 on its connection; the \
             limit is per wait (0 disables the watchdog).")
  in
  let max_request_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-request-mb" ] ~docv:"MB"
          ~doc:
            "Per-request allocation budget in megabytes (sampled via GC \
             alarms); a request allocating past it is aborted with a 125 \
             diagnostic.  Default: unlimited.")
  in
  let serve_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "The most compiles the daemon runs at once, each on its own \
             domain: cache-missing one-shot compiles and batch lanes alike.  \
             Each compile may reach about 3 GB of heap under the default \
             node budget, so N compiles may hold N times that.  Default: \
             $(b,QSC_JOBS) when set, else the number of cores, but no more \
             than one per 3 GB of physical memory (1 where that is \
             unknown).  1 compiles one request at a time.  Responses are \
             byte-identical at every N.")
  in
  let run socket port cache_size max_deadline max_requests cache_bytes
      persist_dir max_workers max_pending read_timeout max_frame_bytes
      watchdog_grace max_request_mb jobs_opt =
    let address =
      match (socket, port) with
      | Some path, None -> Ok (Serve.Unix_socket path)
      | None, Some p -> Ok (Serve.Tcp { host = "127.0.0.1"; port = p })
      | None, None -> Error (`Msg "choose a transport: --socket or --port")
      | Some _, Some _ -> Error (`Msg "--socket and --port are exclusive")
    in
    let max_request_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) max_request_mb
    in
    (* [Serve.create] validates every setting; a value out of range is a
       reported failure naming the setting. *)
    match address with
    | Error e -> Error e
    | Ok address -> (
      match
        Serve.create ~cache_capacity:cache_size ~max_cache_bytes:cache_bytes
          ?persist_dir ~max_deadline_seconds:max_deadline ~max_frame_bytes
          ~watchdog_grace_seconds:watchdog_grace ?max_request_bytes
          ~read_timeout_seconds:read_timeout ~max_workers ~max_pending
          ?jobs:jobs_opt ()
      with
      | exception Invalid_argument msg -> Error (`Msg msg)
      | daemon ->
        (* Readiness line on stdout: harnesses wait for it before
           connecting. *)
        Printf.printf "qsynth-serve/v1 listening on %s\n%!"
          (Serve.address_to_string address);
        Serve.serve ?max_requests daemon address;
        let c = Serve.stats daemon in
        Printf.printf
          "served %d request(s); cache: %d hit(s), %d miss(es), %d \
           eviction(s), %d resident (%d bytes, %d warmed); overload: %d \
           shed, %d drained; supervision: %d watchdog, %d allocation; \
           connections: %d served, %d disconnect(s)\n\
           %!"
          c.Serve.requests c.Serve.hits c.Serve.misses c.Serve.evictions
          c.Serve.resident c.Serve.resident_bytes c.Serve.warmed c.Serve.shed
          c.Serve.drained c.Serve.watchdog_trips c.Serve.alloc_trips
          c.Serve.connections_served c.Serve.client_disconnects;
        Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent compile service: newline-delimited JSON \
          (qsynth-serve/v1) over a Unix-domain or loopback TCP socket, \
          with a content-addressed LRU cache of compile reports.  \
          Responses carry a \"code\" field mirroring the exit contract: 0 \
          success, 123 reported failure, 124 protocol misuse, 125 internal \
          error.  See the README \"Serving\" section for the protocol.")
    Term.(
      const run $ socket $ port $ cache_size $ max_deadline $ max_requests
      $ cache_bytes $ persist_dir $ max_workers $ max_pending $ read_timeout
      $ max_frame_bytes $ watchdog_grace $ max_request_mb $ serve_jobs)

let main =
  let info =
    Cmd.info "qsc" ~version:"1.0.0"
      ~doc:
        "Technology-dependent quantum logic synthesis with QMDD formal \
         verification (reproduction of Smith & Thornton, ISCA 2019)."
  in
  Cmd.group info
    [
      compile_cmd; optimize_cmd; devices_cmd; complexity_cmd; qmdd_cmd;
      check_cmd; lint_cmd; analyze_cmd; fuzz_cmd; stats_cmd; run_cmd;
      serve_cmd;
    ]

(* Exit-code boundary, implementing the README "Failure semantics"
   contract end to end:

     exit 0    the subcommand succeeded
     exit 123  reported failure (the term evaluated to [Error (`Msg _)],
               or a known domain exception escaped)
     exit 124  command-line misuse (anything cmdliner's parse layer
               rejects: unknown subcommand/option, bad option value)
     exit 125  internal error (unexpected exception; a bug)

   Subcommand terms return [result] as a *value* rather than through
   [Term.term_result], because this cmdliner routes its parse errors
   through the same [`Error `Term] as term_result failures — which
   would collapse the 123/124 split.  With plain value terms, every
   [Error `Term]/[Error `Parse] from [eval_value] is by construction a
   parse-layer rejection.  Exceptions are classified below so the user
   sees a one-line message, never an OCaml backtrace. *)
let () =
  let eval () =
    (* Test-only hook: the exit-code contract suite sets this to drive
       the internal-error path (exit 125) end to end through a real
       process, since no well-formed input should ever reach it. *)
    (match Sys.getenv_opt "QSC_DEBUG_INJECT_CRASH" with
    | Some msg -> failwith msg
    | None -> ());
    Cmd.eval_value ~catch:false main
  in
  match eval () with
  | Ok (`Ok (Ok ())) | Ok `Help | Ok `Version -> exit 0
  | Ok (`Ok (Error (`Msg msg))) ->
    Printf.eprintf "qsc: %s\n" msg;
    exit 123
  | Error `Term | Error `Parse -> exit 124 (* message already printed *)
  | Error `Exn -> exit 125 (* not reachable with ~catch:false *)
  | exception e ->
    let reported =
      match e with
      | Compiler.Compile_error msg -> Some msg
      | Lint.Contract.Violated msg -> Some msg
      | Qformats.Qasm.Parse_error { line; message } ->
        Some (Printf.sprintf "line %d: QASM parse error: %s" line message)
      | Qformats.Qc.Parse_error { line; message } ->
        Some (Printf.sprintf "line %d: .qc parse error: %s" line message)
      | Qformats.Real.Parse_error { line; message } ->
        Some (Printf.sprintf "line %d: .real parse error: %s" line message)
      | Qformats.Pla.Parse_error { line; message } ->
        Some (Printf.sprintf "line %d: PLA parse error: %s" line message)
      | Faultinject.Injected stage ->
        Some (Printf.sprintf "injected fault fired in stage %s" stage)
      | Sys_error msg -> Some msg
      | _ -> None
    in
    (match reported with
    | Some msg ->
      Printf.eprintf "qsc: %s\n" msg;
      exit 123
    | None ->
      Printf.eprintf "qsc: internal error: %s\n" (Printexc.to_string e);
      exit 125)
