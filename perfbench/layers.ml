(* Layer harness for the perfbench workloads.

     layers.exe table8 WORKLOAD SEED SECONDS TRACE SPANS_FILE
     layers.exe replica KEYS_FILE SPANS_FILE
     layers.exe memory WORKLOAD SEED
     layers.exe probe-server

   [table8] runs table8-synth or table8-verify.  It times passes of
   Compiler.compile over the seeded input order for SECONDS, and probes
   the host's speed, in the same process, after every compile.  With
   TRACE = 1 every input also goes through [replica]: the compiler's
   pipeline rebuilt from the layers' public functions, with one span
   around each layer call, checked against Compiler.compile.

   [replica] runs the same traced replica over the distinct requests of
   a serve-mixed stream.  KEYS_FILE is a JSON list of
   {"file", "format", "device"} objects; the options are the ones a
   qsc serve daemon applies to a compile request that sets none.  Its
   outputs are checked against the daemon's reports by run.py.

   [memory] compiles each input of a table8 workload once, in a process
   the probe does not share, and reports the process's peak memory.

   [probe-server] runs the reference kernel once per line read from
   stdin and answers with its seconds; serve-mixed probes the host
   through it.

   [table8], [replica] and [memory] print one JSON object of raw
   samples as the last line of stdout; perfbench/run.py turns the
   samples into metrics.  Spans are held in memory and written to
   SPANS_FILE when the run ends. *)

module J = Trace.Json

let elapsed_s t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* Words this domain has allocated so far, minor plus major; promoted
   words would otherwise count twice. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          int_of_string_opt (String.trim (Filename.chop_suffix (String.trim v) "kB"))
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* --- timing ---------------------------------------------------------- *)

(* Every timed call starts from a collected major heap, so that it does
   not pay for the garbage of whatever ran before it. *)
let timed f =
  Gc.full_major ();
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, elapsed_s t0 (Trace.now_ns ()))

(* --- the host-speed probe ------------------------------------------- *)

(* On a shared virtual machine (measured on a 2-vCPU one), other
   tenants' memory traffic slows allocation-heavy code like the
   compiler's by up to half for a minute or more at a time, while plain
   arithmetic keeps its speed.  So each compile is timed next to this
   fixed kernel, which is shaped like the optimizer (a list of small
   gate records, rewritten pass by pass with adjacent pairs cancelled,
   about 10 MB live) and slows with it.  It is Stdlib-only and the
   benchmark's own, so no change to the compiler moves it; a compile's
   time divided by the kernel's is the compile's cost with the host's
   drift cancelled. *)
type probe_gate = { wire : int; partner : int; kind : int }

let reference_kernel () =
  let gates =
    List.init 200_000 (fun i ->
        { wire = i mod 96; partner = i * 7 mod 96; kind = i mod 5 })
  in
  let rec pass acc = function
    | g :: h :: rest when g.wire = h.wire && g.kind = h.kind -> pass acc rest
    | g :: rest -> pass ({ g with kind = (g.kind + 1) mod 5 } :: acc) rest
    | [] -> List.rev acc
  in
  let gates = ref gates in
  for _ = 1 to 4 do
    gates := pass [] !gates
  done;
  List.length !gates

let probe () = snd (timed (fun () -> Sys.opaque_identity (reference_kernel ())))

(* [layers.exe probe-server]: the probe for a program in another
   process, such as a qsc serve daemon.  It answers each line it reads
   with the seconds of one kernel run. *)
let probe_server () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (probe ())
    done
  with End_of_file -> ()

(* --- spans and per-pass counters ----------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for the root span of one input *)
  pass : int;
  input : string;
  start_ns : int64;
  stop_ns : int64;
}

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_span = ref 0

(* The pass and input the spans being recorded belong to. *)
let current = ref (0, "")

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start_ns = Trace.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = Trace.now_ns () in
        open_spans := List.tl !open_spans;
        let pass, input = !current in
        spans := { id; name; parent; pass; input; start_ns; stop_ns } :: !spans)
  end

let spans_json () =
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("pass", J.Int s.pass);
             ("input", J.String s.input);
             ("start_ns", J.Int (Int64.to_int s.start_ns));
             ("stop_ns", J.Int (Int64.to_int s.stop_ns));
           ])
       !spans)

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let count_max name v =
  Hashtbl.replace counters name
    (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt counters name)))

let take_counters () =
  let fields =
    Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counters []
    |> List.sort compare
  in
  Hashtbl.reset counters;
  J.Obj fields

let counting_alloc name f =
  let w0 = alloc_words () in
  let r = f () in
  count name (alloc_words () -. w0);
  r

let observe_qmdd (s : Qmdd.stats) =
  count "qmdd.checks" 1.0;
  count_max "qmdd.peak_nodes" (float_of_int s.Qmdd.peak_unique_nodes);
  count "qmdd.allocated_nodes" (float_of_int s.Qmdd.allocated);
  count "qmdd.mul_hits" (float_of_int s.Qmdd.mul_cache_hits);
  count "qmdd.mul_misses" (float_of_int s.Qmdd.mul_cache_misses);
  count "qmdd.add_hits" (float_of_int s.Qmdd.add_cache_hits);
  count "qmdd.add_misses" (float_of_int s.Qmdd.add_cache_misses)

(* --- the replica pipeline ------------------------------------------- *)

(* Compiler.verify for the CTR router: the single-shot check up to 32
   qubits, the staged proof (reference = native, every routed CNOT
   block = its CNOT, unoptimized = optimized) beyond, each falling back
   on the other when the node budget runs out.  The Fallback mode's
   dense-simulator oracle is not replicated: it answers only after
   QMDD gave up, which none of the benchmark's inputs make it do, and a
   replica that gets there reports Budget_exceeded, fails the replica
   check and so says so. *)
let verify ~node_budget ~deadline_ns device ~native ~unoptimized ~optimized
    reference =
  let check name a b =
    span name (fun () ->
        Qmdd.equivalent ~up_to_phase:false ?node_budget ?deadline_ns
          ~stats:observe_qmdd a b)
  in
  let direct () =
    match check "qmdd.direct" reference optimized with
    | true -> Compiler.Verified
    | false -> Compiler.Mismatch
    | exception Qmdd.Node_budget_exceeded -> Compiler.Budget_exceeded
  in
  let staged () =
    let n = Device.n_qubits device in
    let blocks =
      List.map
        (fun g ->
          ( g,
            Route.expand_swaps device
              (Route.route_circuit_swaps device (Circuit.make ~n [ g ])) ))
        (Circuit.gates native)
    in
    let reassembled =
      Circuit.make ~n (List.concat_map (fun (_, b) -> Circuit.gates b) blocks)
    in
    match
      if not (Circuit.equal reassembled unoptimized) then
        Compiler.Budget_exceeded
      else if not (check "qmdd.reference-native" reference native) then
        Compiler.Mismatch
      else if
        not
          (List.for_all
             (fun (g, block) ->
               match g with
               | Gate.Cnot _ -> check "qmdd.block" (Circuit.make ~n [ g ]) block
               | _ -> true)
             blocks)
      then Compiler.Mismatch
      else if check "qmdd.unoptimized-optimized" unoptimized optimized then
        Compiler.Verified_staged
      else Compiler.Mismatch
    with
    | v -> v
    | exception Qmdd.Node_budget_exceeded -> Compiler.Budget_exceeded
  in
  try
    if Device.n_qubits device > 32 then
      match staged () with Compiler.Budget_exceeded -> direct () | v -> v
    else match direct () with Compiler.Budget_exceeded -> staged () | v -> v
  with Qmdd.Deadline_exceeded -> Compiler.Budget_exceeded

(* Compiler.compile_checked for the options this benchmark uses (CTR
   router, both optimization stages, no placement, no state folding,
   no contracts, no budget but a deadline), one layer call at a time
   and in the same order.  Returns the unoptimized and optimized
   circuits and the verdict. *)
let replica (options : Compiler.options) circuit =
  let device = options.Compiler.device and cost = options.Compiler.cost in
  let rules = options.Compiler.rewrite_rules in
  let deadline_ns =
    Option.map
      (fun s -> Int64.add (Trace.now_ns ()) (Int64.of_float (s *. 1e9)))
      options.Compiler.budgets.Compiler.deadline_seconds
  in
  (* A recording sink makes Optimize emit its rewrite/<rule> counters. *)
  let trace = Trace.create () in
  let reference = Circuit.widen circuit (Device.n_qubits device) in
  let staged =
    span "optimize.pre" (fun () ->
        (Optimize.optimize_budgeted ~cost:Cost.eqn2 ~trace
           ~stage:"pre-optimize" ~rules ?deadline_ns reference)
          .Optimize.circuit)
  in
  let native = span "decompose" (fun () -> Decompose.to_native staged) in
  count "decompose.gates_out" (float_of_int (Circuit.gate_count native));
  let stats = Route.new_stats () in
  let routed =
    span "route" (fun () -> Route.route_circuit_swaps ~stats device native)
  in
  count "route.swaps_inserted" (float_of_int stats.Route.swaps_inserted);
  count "route.swap_hops" (float_of_int stats.Route.swap_hops);
  let unoptimized =
    span "route.expand" (fun () -> Route.expand_swaps device routed)
  in
  count "route.gates_out" (float_of_int (Circuit.gate_count unoptimized));
  let optimized =
    span "optimize.post" (fun () ->
        let post stage c =
          let o =
            counting_alloc "optimize.alloc_words" (fun () ->
                Optimize.optimize_budgeted ~device ~cost ~trace ~stage ~rules
                  ?deadline_ns c)
          in
          count "optimize.iterations" (float_of_int o.Optimize.iterations);
          o.Optimize.circuit
        in
        let swap_level = post "post-optimize/swap-level" routed in
        let expanded =
          span "route.expand" (fun () -> Route.expand_swaps device swap_level)
        in
        post "post-optimize/gate-level" expanded)
  in
  count "optimize.gates_removed"
    (float_of_int (Circuit.gate_count unoptimized - Circuit.gate_count optimized));
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"rewrite/" k then count "rewrite.fires" v)
    (Trace.counter_totals trace);
  let verdict =
    match options.Compiler.verification with
    | Compiler.Skip -> Compiler.Skipped
    | Compiler.Qmdd_check { node_budget } | Compiler.Fallback { node_budget; _ }
      ->
      span "qmdd.verify" (fun () ->
          counting_alloc "qmdd.alloc_words" (fun () ->
              verify ~node_budget ~deadline_ns device ~native ~unoptimized
                ~optimized reference))
  in
  (unoptimized, optimized, verdict)

(* --- checks --------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

let error fmt =
  Printf.ksprintf (fun msg -> errors := msg :: !errors) fmt

(* One timed Compiler.compile_checked call counted against [attempted]:
   [None] when it failed — an error, or an unverified output where
   verification was asked for — which also counts it in [failed]. *)
let compile_op ~id options circuit =
  incr attempted;
  let (result, words), seconds =
    timed (fun () ->
        let w0 = alloc_words () in
        let r = Compiler.compile_checked options (Compiler.Quantum circuit) in
        (r, alloc_words () -. w0))
  in
  match result with
  | Error ds ->
    incr failed;
    error "%s: compile error: %s" id
      (String.concat "; " (List.map Diagnostic.to_string ds));
    None
  | Ok r ->
    if
      options.Compiler.verification <> Compiler.Skip
      && not (Compiler.verified r.Compiler.verification)
    then begin
      incr failed;
      error "%s: verdict %s" id
        (Compiler.verification_to_string r.Compiler.verification);
      None
    end
    else Some (r, seconds, words)

(* The replica check: per-layer numbers from a replica that computes
   something else would measure a different program. *)
let check_replica ~id (r : Compiler.report) (unoptimized, optimized, verdict) =
  if not (Circuit.equal unoptimized r.Compiler.unoptimized) then
    error "%s: replica's unoptimized circuit differs from Compiler.compile" id;
  if not (Circuit.equal optimized r.Compiler.optimized) then
    error "%s: replica's optimized gate list differs from Compiler.compile" id;
  if verdict <> r.Compiler.verification then
    error "%s: replica verdict %s, Compiler.compile verdict %s" id
      (Compiler.verification_to_string verdict)
      (Compiler.verification_to_string r.Compiler.verification)

let traced_replica ~pass ~id options front =
  current := (pass, id);
  tracing := true;
  let out, s = timed (fun () -> span "compile" (fun () -> replica options (front ()))) in
  tracing := false;
  (out, s)

(* --- table8-synth and table8-verify --------------------------------- *)

type input = { id : string; circuit : Circuit.t; t_count : int }

(* Barenco lowers a T_n gate (n - 1 controls) to 28 (n - 3) T gates
   before optimization: 336 ... 784 for the four-gate cascades of
   Table 8. *)
let t_gates n_controls = 28 * (n_controls + 1 - 3)

(* T8_b's prefix is left out: at about 5 s a compile, a 30 s run would
   fit too few compiles of each input for a steady median. *)
let prefix_benchmarks = [ "T6_b"; "T7_b" ]

let table8_inputs ~verify =
  let open Benchsuite.Big_cascades in
  if verify then
    List.map
      (fun name ->
        let b = find name in
        let controls, target = List.hd b.gates in
        {
          id = name ^ "-prefix";
          circuit = Circuit.make ~n:96 [ Gate.mct controls target ];
          t_count = t_gates b.n_controls;
        })
      prefix_benchmarks
  else
    List.map
      (fun b ->
        {
          id = b.name;
          circuit = circuit b;
          t_count = List.length b.gates * t_gates b.n_controls;
        })
      all

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One set-up takes tens of microseconds, so a set-up sample times a
   batch of [setup_batch] and reports the mean.  [setup_samples] samples
   are taken before every compile. *)
let setup_batch = 50
let setup_samples = 5

(* A table8 workload's set-up (build the device and the input circuits)
   and the options its inputs are compiled with. *)
let table8_workload ~workload ~seed =
  let verify =
    match workload with
    | "table8-synth" -> false
    | "table8-verify" -> true
    | w -> failwith ("unknown table8 workload " ^ w)
  in
  let setup () =
    ( Device.make ~name:"big96" ~n_qubits:96 (Device.couplings Device.Ibm.big96),
      shuffle seed (table8_inputs ~verify) )
  in
  let options device =
    let base = Compiler.default_options ~device in
    if verify then base else { base with Compiler.verification = Compiler.Skip }
  in
  (setup, options)

(* The peak memory of one pass over the inputs in a fresh process, with
   no probe sharing its heap. *)
let memory ~workload ~seed =
  let setup, options = table8_workload ~workload ~seed in
  let device, inputs = setup () in
  List.iter
    (fun inp -> ignore (compile_op ~id:inp.id (options device) inp.circuit))
    inputs;
  [ ("peak_rss_kb", J.Int (peak_rss_kb ())) ]

let table8 ~workload ~seed ~seconds ~trace =
  let setup, options = table8_workload ~workload ~seed in
  let device, inputs = setup () in
  let options = options device in
  (* Samples before every compile, so that they spread over the run
     instead of all meeting the cold start of the process or a burst of
     the host's load, and after a collection, so that they do not pay
     for the last compile's garbage. *)
  let setups = ref [] in
  let sample_setup () =
    Gc.full_major ();
    for _ = 1 to setup_samples do
      let t0 = Trace.now_ns () in
      for _ = 1 to setup_batch do
        ignore (Sys.opaque_identity (setup ()))
      done;
      setups :=
        (elapsed_s t0 (Trace.now_ns ()) /. float_of_int setup_batch) :: !setups
    done
  in
  let first_outputs = Hashtbl.create 8 in
  let ops = ref [] and passes = ref [] in
  let stop_at =
    Int64.add (Trace.now_ns ()) (Int64.of_float (seconds *. 1e9))
  in
  let min_passes = if trace then 1 else 2 in
  let pass = ref 0 and last_pass_ns = ref 0L in
  (* The host's speed during a compile: the mean of the probes just
     before and just after it. *)
  let last_probe = ref (probe ()) in
  (* Another pass only when it should still end within SECONDS. *)
  while
    !pass < min_passes
    || Int64.compare (Int64.add (Trace.now_ns ()) !last_pass_ns) stop_at <= 0
  do
    let p0 = Trace.now_ns () in
    let seconds = ref 0.0 and words = ref 0.0 and traced = ref 0.0 in
    let cost = ref 0.0 and gates = ref 0 in
    List.iter
      (fun inp ->
        sample_setup ();
        let result = compile_op ~id:inp.id options inp.circuit in
        let before = !last_probe in
        last_probe := probe ();
        match result with
        | None -> ()
        | Some (r, s, w) ->
          seconds := !seconds +. s;
          words := !words +. w;
          ops := (inp.id, !pass, s, (before +. !last_probe) /. 2.0) :: !ops;
          cost := !cost +. r.Compiler.optimized_cost;
          gates := !gates + (Circuit.stats r.Compiler.optimized).Circuit.gate_volume;
          let t = Circuit.t_count r.Compiler.unoptimized in
          if t <> inp.t_count then
            error "%s: T-count %d before optimization, expected %d" inp.id t
              inp.t_count;
          (match Hashtbl.find_opt first_outputs inp.id with
          | None -> Hashtbl.add first_outputs inp.id r.Compiler.optimized
          | Some c ->
            if not (Circuit.equal c r.Compiler.optimized) then
              error "%s: pass %d output differs from pass 0" inp.id !pass);
          if trace then begin
            let out, s =
              traced_replica ~pass:!pass ~id:inp.id options (fun () ->
                  inp.circuit)
            in
            traced := !traced +. s;
            check_replica ~id:inp.id r out
          end)
      inputs;
    passes :=
      J.Obj
        ([
           ("seconds", J.Float !seconds);
           ("alloc_words", J.Float !words);
           ("output_cost", J.Float !cost);
           ("output_gates", J.Int !gates);
         ]
        @
        if trace then
          [ ("traced_s", J.Float !traced); ("counters", take_counters ()) ]
        else [])
      :: !passes;
    last_pass_ns := Int64.sub (Trace.now_ns ()) p0;
    incr pass
  done;
  [
    ("setup_s", J.List (List.rev_map (fun s -> J.Float s) !setups));
    ( "ops",
      J.List
        (List.rev_map
           (fun (id, pass, s, ref_s) ->
             J.Obj
               [
                 ("input", J.String id);
                 ("pass", J.Int pass);
                 ("seconds", J.Float s);
                 ("ref_s", J.Float ref_s);
               ])
           !ops) );
    ("passes", J.List (List.rev !passes));
  ]

(* --- serve-mixed: the replica over the stream's distinct requests ---- *)

(* What a qsc serve daemon compiles a request with when the request sets
   no options: the CLI defaults, fallback verification and the daemon's
   60 s deadline ceiling. *)
let serve_options device =
  {
    (Compiler.default_options ~device) with
    Compiler.verification =
      Compiler.Fallback { node_budget = Some 8_000_000; max_sim_qubits = 10 };
    budgets = { Compiler.no_budgets with Compiler.deadline_seconds = Some 60.0 };
  }

let replica_keys keys_file =
  let keys =
    match J.of_string (In_channel.with_open_text keys_file In_channel.input_all) with
    | Ok (J.List l) -> l
    | Ok _ | Error _ -> failwith ("malformed keys file " ^ keys_file)
  in
  let field k j =
    match J.member k j with Some (J.String s) -> s | _ -> failwith ("key without " ^ k)
  in
  let traced = ref 0.0 in
  let outputs =
    List.mapi
      (fun i key ->
        let file = field "file" key and format = field "format" key in
        let device = Device.find (field "device" key) in
        let options = serve_options device in
        let source = In_channel.with_open_bin file In_channel.input_all in
        let front () =
          match
            span "qformats.parse" (fun () ->
                Compiler.parse_source_checked ~format source)
          with
          | Error d -> failwith (Diagnostic.to_string d)
          | Ok (Compiler.Quantum c) -> c
          | Ok (Compiler.Classical pla) ->
            span "esop.cascade" (fun () -> Cascade.of_pla pla)
        in
        let (_, optimized, verdict), s =
          traced_replica ~pass:0
            ~id:(Printf.sprintf "%s@%s" file (Device.name device))
            options front
        in
        traced := !traced +. s;
        let st = Circuit.stats optimized in
        J.Obj
          [
            ("key", J.Int i);
            ("gate_volume", J.Int st.Circuit.gate_volume);
            ("t_count", J.Int st.Circuit.t_count);
            ("cost", J.Float (Cost.evaluate options.Compiler.cost optimized));
            ("verification", J.String (Compiler.verification_tag verdict));
          ])
      keys
  in
  [
    ("outputs", J.List outputs);
    ( "passes",
      J.List [ J.Obj [ ("traced_s", J.Float !traced); ("counters", take_counters ()) ] ] );
  ]

(* --- main ----------------------------------------------------------- *)

let () =
  let fields, spans_file =
    match Array.to_list Sys.argv with
    | [ _; "table8"; workload; seed; seconds; trace; spans_file ] ->
      ( table8 ~workload ~seed:(int_of_string seed)
          ~seconds:(float_of_string seconds) ~trace:(trace = "1"),
        spans_file )
    | [ _; "replica"; keys_file; spans_file ] -> (replica_keys keys_file, spans_file)
    | [ _; "memory"; workload; seed ] ->
      (memory ~workload ~seed:(int_of_string seed), Filename.null)
    | [ _; "probe-server" ] ->
      probe_server ();
      exit 0
    | _ ->
      prerr_endline
        "usage: layers.exe table8 WORKLOAD SEED SECONDS TRACE SPANS_FILE\n\
        \       layers.exe replica KEYS_FILE SPANS_FILE\n\
        \       layers.exe memory WORKLOAD SEED\n\
        \       layers.exe probe-server";
      exit 2
  in
  Out_channel.with_open_text spans_file (fun oc ->
      output_string oc (J.to_string (spans_json ())));
  print_endline
    (J.to_string
       (J.Obj
          (fields
          @ [
              ("attempted", J.Int !attempted);
              ("failed", J.Int !failed);
              ("errors", J.List (List.rev_map (fun e -> J.String e) !errors));
              ("peak_rss_kb", J.Int (peak_rss_kb ()));
            ])))
