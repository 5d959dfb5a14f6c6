type input =
  | Quantum of Circuit.t
  | Classical of Qformats.Pla.t

type verification_mode =
  | Skip
  | Qmdd_check of { node_budget : int option }
  | Fallback of { node_budget : int option; max_sim_qubits : int }

type router = Ctr | Weighted_ctr of Calibration.t | Tracking

type budgets = {
  deadline_seconds : float option;
  max_optimize_iterations : int option;
  swap_budget : int option;
}

let no_budgets =
  { deadline_seconds = None; max_optimize_iterations = None; swap_budget = None }

type options = {
  device : Device.t;
  cost : Cost.t;
  router : router;
  pre_optimize : bool;
  post_optimize : bool;
  fold_states : bool;
  use_placement : bool;
  verification : verification_mode;
  check_contracts : bool;
  rewrite_rules : Rewrite.selection;
  budgets : budgets;
}

let verification_mode ?(mode = `Fallback) ?node_budget
    ?(max_sim_qubits = Oracle.default_budget.dense_qubits) () =
  let node_budget =
    match node_budget with
    | None -> Some 8_000_000
    | Some 0 -> None
    | Some n -> Some n
  in
  match mode with
  | `Skip -> Skip
  | `Qmdd -> Qmdd_check { node_budget }
  | `Fallback -> Fallback { node_budget; max_sim_qubits }

let default_options ~device =
  {
    device;
    cost = Cost.eqn2;
    router = Ctr;
    pre_optimize = true;
    post_optimize = true;
    fold_states = false;
    use_placement = false;
    verification = verification_mode ();
    check_contracts = false;
    rewrite_rules = Rewrite.default_selection;
    budgets = no_budgets;
  }

type verification_result =
  | Verified
  | Verified_staged
  | Verified_sim
  | Mismatch
  | Budget_exceeded
  | Unverified of string
  | Skipped

let verified = function
  | Verified | Verified_staged | Verified_sim -> true
  | Mismatch | Budget_exceeded | Unverified _ | Skipped -> false

type report = {
  reference : Circuit.t;
  placement : int array option;
  unoptimized : Circuit.t;
  optimized : Circuit.t;
  unoptimized_cost : float;
  optimized_cost : float;
  percent_decrease : float;
  verification : verification_result;
  degraded : (Diagnostic.stage * string) list;
  diagnostics : Diagnostic.t list;
  elapsed_seconds : float;
  verification_seconds : float;
  trace : Trace.span list;
}

let degraded r = r.degraded <> []

let wall_seconds_since t0_ns =
  Int64.to_float (Int64.sub (Trace.now_ns ()) t0_ns) /. 1e9

exception Compile_error of string

(* Internal control flow of [compile_checked]: every fatal condition in
   the pipeline is converted into exactly one diagnostic and thrown to
   the single handler at the bottom.  Never escapes this module. *)
exception Abort of Diagnostic.t

let front_end = function
  | Quantum c -> c
  | Classical pla -> Cascade.of_pla pla

(* The distinct gates of [gates], in order of first occurrence. *)
let distinct gates =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun g ->
      if Hashtbl.mem seen g then false
      else begin
        Hashtbl.add seen g ();
        true
      end)
    gates

(* [expands expansion outer inner] holds when [inner] is the gates of
   [outer], each replaced by [expansion g], one after another: how
   lowering reads the reference into [native], and how blockwise
   routing reads [native] into the unoptimized circuit.  A walk that
   allocates nothing. *)
let expands expansion outer inner =
  let rec walk outer block inner =
    match (block, inner) with
    | b :: block, i :: inner -> Gate.equal b i && walk outer block inner
    | _ :: _, [] -> false
    | [], _ -> (
      match outer with
      | [] -> inner = []
      | g :: outer -> walk outer (expansion g) inner)
  in
  walk (Circuit.gates outer) [] (Circuit.gates inner)

(* Each distinct gate of [native] routed and expanded on its own.
   Routing a one-gate circuit is deterministic, so this is the block
   that blockwise routing of [native] puts at every occurrence. *)
let routed_blocks ~route device native =
  let n = Device.n_qubits device in
  let blocks = Hashtbl.create 64 in
  Circuit.iter
    (fun g ->
      if not (Hashtbl.mem blocks g) then
        Hashtbl.add blocks g
          (Circuit.gates
             (Route.expand_swaps device (route device (Circuit.make ~n [ g ])))))
    native;
  blocks

(* The links proving reference = native, along the paper's two
   lowering steps (Sec. 4): each distinct MCT = its Toffoli cascade
   (Barenco et al.), then each distinct non-native gate of that
   Toffoli level = its Clifford+T lowering.  They chain when [native]
   is literally the reference lowered gate by gate, because
   [Decompose.lower_gate] of an MCT lowers its cascade gate by gate.
   Otherwise (pre-optimize changed the circuit, or placement moved the
   borrowed qubits) the one link reference = native stands in. *)
let lowering_links reference native =
  let n = Circuit.n_qubits reference in
  let lowered = Hashtbl.create 64 in
  let lower g =
    match Hashtbl.find_opt lowered g with
    | Some l -> l
    | None ->
      let l = Decompose.lower_gate ~n g in
      Hashtbl.add lowered g l;
      l
  in
  if not (expands lower reference native) then [ (reference, native) ]
  else
    let gates = distinct (Circuit.gates reference) in
    let toffolis = function
      | Gate.Mct { controls; target } ->
        Decompose.mct_to_toffoli ~n ~controls ~target
      | g -> [ g ]
    in
    let link a b = (Circuit.make ~n a, Circuit.make ~n b) in
    List.filter_map
      (function Gate.Mct _ as g -> Some (link [ g ] (toffolis g)) | _ -> None)
      gates
    @ List.filter_map
        (fun g ->
          if Gate.is_transmon_native g then None else Some (link [ g ] (lower g)))
        (distinct (List.concat_map toffolis gates))

(* Staged proof: (1) reference = native, along the lowering steps,
   (2) every distinct routed CNOT block = its CNOT, (3) unoptimized =
   optimized.  The caller has checked that the blocks reassemble into
   the unoptimized circuit, so chaining the equivalences gives
   reference = optimized.  Each link is proved on the qubits it
   touches, where its diagrams stay small even when the single-shot
   miter on the whole register explodes.  [check] is the QMDD
   oracle. *)
let verify_staged ~check blocks native unoptimized optimized reference =
  let n = Circuit.n_qubits native in
  let cnot_links =
    List.filter_map
      (fun g ->
        if Gate.is_cnot g then
          Some (Circuit.make ~n [ g ], Circuit.make ~n (Hashtbl.find blocks g))
        else None)
      (distinct (Circuit.gates native))
  in
  (* The first link that is not [Equal] settles the chain. *)
  List.fold_left
    (fun v (a, b) ->
      if v = Oracle.Equal then
        let a, b = Circuit.compact a b in
        check a b
      else v)
    Oracle.Equal
    (lowering_links reference native
    @ cnot_links
    @ [ (unoptimized, optimized) ])

let verify mode options ~trace ~budget ~route ~routed_all ~warn ~native
    ~unoptimized ~optimized reference =
  let sp = Trace.start trace "verify" in
  let t0 = Trace.now_ns () in
  (* Every QMDD check the strategy runs (the staged proof runs many)
     reports its manager's counters here. *)
  let seen = ref [] in
  let stats =
    if Trace.enabled trace then Some (fun s -> seen := s :: !seen) else None
  in
  let check a b = Oracle.unitary ~engine:Oracle.Qmdd ?stats budget a b in
  let settle ~equal = function
    | Oracle.Equal -> Ok equal
    | Oracle.Different -> Ok Mismatch
    | Oracle.Gave_up reason -> Error reason
  in
  (* Blockwise routing only reassembles when gates route independently
     of each other. *)
  let blockwise =
    match options.router with Tracking -> false | Ctr | Weighted_ctr _ -> true
  in
  (* The routed blocks, when they reassemble into the unoptimized
     circuit. *)
  let blocks =
    lazy
      (if not blockwise then None
       else
         let blocks = routed_blocks ~route options.device native in
         if expands (Hashtbl.find blocks) native unoptimized then Some blocks
         else None)
  in
  (* A CTR route that left no CNOT unrouted is blockwise by
     construction, so a failed reassembly means the report's
     unoptimized circuit is not the routing of [native]: no strategy
     may prove around it.  A budget-degraded route leaves CNOTs the
     blocks route, so it only loses the staged proof. *)
  let misassembled =
    blockwise && routed_all && Option.is_none (Lazy.force blocks)
  in
  let direct () = settle ~equal:Verified (check reference optimized) in
  let staged () =
    match Lazy.force blocks with
    | Some blocks ->
      settle ~equal:Verified_staged
        (verify_staged ~check blocks native unoptimized optimized reference)
    (* Nothing to chain: the caller moves on to its next strategy. *)
    | None -> Error Oracle.Node_budget
  in
  (* Wide registers go straight to the staged proof; small ones to the
     cheaper single-shot check.  Either falls back on the other when
     the diagram outgrows the node budget. *)
  let first, second =
    if Device.n_qubits options.device > 32 then (staged, direct)
    else (direct, staged)
  in
  let proved =
    if misassembled then begin
      warn
        (Diagnostic.warning ~stage:Diagnostic.Verify
           ~kind:Diagnostic.Verification_failed
           "the unoptimized circuit is not the blockwise routing of the \
            native circuit");
      Ok Mismatch
    end
    else match first () with Error Oracle.Node_budget -> second () | r -> r
  in
  let outcome, sim_used =
    match (mode, proved) with
    | _, Ok verdict -> (verdict, false)
    | (Skip | Qmdd_check _), Error _ -> (Budget_exceeded, false)
    | Fallback _, Error Oracle.Deadline ->
      (Unverified "wall-clock deadline exceeded during verification", false)
    | Fallback _, Error reason -> (
      (* The dense simulator is the last resort, not a license to
         overrun: past the deadline, or over its width cap, it gives up
         and the verdict says why. *)
      match Oracle.unitary ~engine:Oracle.Dense budget reference optimized with
      | Oracle.Equal -> (Verified_sim, true)
      | Oracle.Different -> (Mismatch, true)
      | Oracle.Gave_up r ->
        ( Unverified
            (Oracle.give_up_to_string reason ^ "; " ^ Oracle.give_up_to_string r),
          false ))
  in
  let elapsed = wall_seconds_since t0 in
  let fold op field =
    float_of_int (List.fold_left (fun acc s -> op acc (field s)) 0 !seen)
  in
  Trace.stop_with trace sp ~cost:options.cost
    ~counters:
      [
        ("qmdd_checks", float_of_int (List.length !seen));
        ("qmdd_peak_unique_nodes", fold max (fun s -> s.Qmdd.peak_unique_nodes));
        ("qmdd_allocated_nodes", fold ( + ) (fun s -> s.Qmdd.allocated));
        ("qmdd_mul_cache_hits", fold ( + ) (fun s -> s.Qmdd.mul_cache_hits));
        ("qmdd_mul_cache_misses", fold ( + ) (fun s -> s.Qmdd.mul_cache_misses));
        ("qmdd_add_cache_hits", fold ( + ) (fun s -> s.Qmdd.add_cache_hits));
        ("qmdd_add_cache_misses", fold ( + ) (fun s -> s.Qmdd.add_cache_misses));
        ("fallback_sim", if sim_used then 1.0 else 0.0);
      ]
    optimized;
  (outcome, elapsed)

(* Whether [cal] rates [device] as [device] executes gates: the same
   register, simulator flag and directed coupling map. *)
let calibrates cal device =
  let d = Calibration.device cal in
  Device.n_qubits d = Device.n_qubits device
  && Device.is_simulator d = Device.is_simulator device
  && String.equal (Device.to_dict_string d) (Device.to_dict_string device)

(* What makes [options] meaningless whatever the input: a weight that is
   not a finite number prices every circuit alike, so no sweep can
   lower it, and a calibration of another device prices gates this
   device does not execute. *)
let option_problems options =
  let device = options.device in
  let calibration what cal =
    if calibrates cal device then []
    else
      [
        Printf.sprintf "%s: a calibration of %s, not of %s" what
          (Device.name (Calibration.device cal))
          (Device.name device);
      ]
  in
  (match options.cost with
  | Cost.Linear { t; cnot; gate } ->
    if List.for_all Float.is_finite [ t; cnot; gate ] then []
    else
      [
        Printf.sprintf "cost %s: every weight must be a finite number"
          (Cost.to_string options.cost);
      ]
  | Cost.Log_fidelity cal -> calibration "cost" cal)
  @
  match options.router with
  | Weighted_ctr cal -> calibration "router" cal
  | Ctr | Tracking -> []

let compile_checked ?(trace = Trace.disabled) ?inject options input =
  let device = options.device in
  let cost = options.cost in
  (* The cost of the span snapshots taken before routing.  A fidelity
     cost is defined only on circuits the device executes, so those
     snapshots are priced by Eqn. 2, as pre-optimize's sweeps are. *)
  let unmapped_cost =
    match cost with Cost.Linear _ -> cost | Cost.Log_fidelity _ -> Cost.eqn2
  in
  let warnings = ref [] in
  let degradations = ref [] in
  let degrade stage reason =
    (* Both post-optimize levels can hit the same cap with the same
       message; one entry per distinct (stage, reason) keeps the report
       readable. *)
    if not (List.mem (stage, reason) !degradations) then begin
      degradations := (stage, reason) :: !degradations;
      warnings :=
        Diagnostic.warning ~stage ~kind:Diagnostic.Budget_exhausted reason
        :: !warnings
    end
  in
  (* Every stage runs under a guard that converts the exceptions the
     stage is known to throw — and anything unexpected — into one
     structured diagnostic naming the stage. *)
  let guard stage f =
    try f () with
    | Abort _ as e -> raise e
    | Lint.Contract.Violated msg ->
      raise
        (Abort
           (Diagnostic.error ~stage ~kind:Diagnostic.Contract_violation msg))
    | Decompose.Not_enough_qubits msg ->
      raise (Abort (Diagnostic.error ~stage ~kind:Diagnostic.Capacity msg))
    | Route.Unroutable msg ->
      raise (Abort (Diagnostic.error ~stage ~kind:Diagnostic.Unroutable msg))
    | Invalid_argument msg ->
      raise (Abort (Diagnostic.error ~stage ~kind:Diagnostic.Invalid_gate msg))
    | Qmdd.Node_budget_exceeded ->
      raise
        (Abort
           (Diagnostic.error ~stage ~kind:Diagnostic.Budget_exhausted
              "QMDD node budget exceeded"))
    | exn ->
      raise
        (Abort
           (Diagnostic.error ~stage ~kind:Diagnostic.Internal
              (Printexc.to_string exn)))
  in
  (* A corrupted gate stream (NaN/infinite rotation angle) has no
     defined unitary; catch it at the stage handoff where it appeared,
     before it can poison the QMDD value table downstream.  A walk that
     allocates nothing clears the usual stream; [Lint] words the
     finding of a corrupted one. *)
  let finite_angle = function
    | Gate.Rx (a, _) | Gate.Ry (a, _) | Gate.Rz (a, _) | Gate.Phase (a, _) ->
      Float.is_finite a
    | _ -> true
  in
  let validate_stream stage c =
    if Circuit.fold (fun ok g -> ok && finite_angle g) true c then c
    else
      match Lint.check ~rules:[ Lint.Rule.Non_finite_angle ] c with
      | [] -> c
      | f :: _ ->
        raise
          (Abort
             (Diagnostic.error ~stage ~kind:Diagnostic.Invalid_gate
                f.Lint.message))
  in
  let inject stage c =
    match inject with
    | None -> c
    | Some f -> guard stage (fun () -> validate_stream stage (f stage c))
  in
  let deadline_ns =
    Option.map
      (fun s -> Int64.add (Trace.now_ns ()) (Int64.of_float (s *. 1e9)))
      options.budgets.deadline_seconds
  in
  (* One budget for every equivalence check the compile runs: the
     strict-mode sweep checks, the fold-states check and verification. *)
  let oracle_budget =
    let b = { Oracle.default_budget with deadline_ns } in
    match options.verification with
    | Skip -> b
    | Qmdd_check { node_budget } -> { b with node_budget }
    | Fallback { node_budget; max_sim_qubits } ->
      { b with node_budget; dense_qubits = max_sim_qubits }
  in
  let check = if options.check_contracts then Some oracle_budget else None in
  (* Contract audit points (--strict / check_contracts): each stage's
     postcondition is checked where it fired, not at the final QMDD
     equivalence, so a broken pass names itself.  Every finding becomes
     a structured diagnostic (kind [Contract_violation], so [compile]
     still surfaces strict failures as [Lint.Contract.Violated]); the
     first is fatal, the rest ride along as context. *)
  let contract stage findings =
    if options.check_contracts then
      match findings with
      | [] -> ()
      | first :: rest ->
        let conv f =
          Lint.to_diagnostic ~kind:Diagnostic.Contract_violation ~stage f
        in
        List.iter (fun f -> warnings := conv f :: !warnings) rest;
        raise (Abort (conv first))
  in
  (* One optimizer run under the compile's rules, budgets and oracle.
     A run that stopped early marks [stage] degraded, once per reason. *)
  let optimize stage ~name ?device ~cost c =
    let (o : Optimize.outcome) =
      guard stage (fun () ->
          Optimize.optimize_budgeted ?device ~cost ~trace ~stage:name
            ~rules:options.rewrite_rules ?check
            ?max_iterations:options.budgets.max_optimize_iterations
            ?deadline_ns c)
    in
    let stopped hit why =
      if not hit then []
      else [ Printf.sprintf "stopped after %d sweeps: %s" o.iterations why ]
    in
    let reasons =
      stopped o.hit_iteration_cap "iteration cap reached"
      @ stopped o.hit_deadline "wall-clock deadline exceeded"
      @ Option.to_list
          (Option.map
             (Printf.sprintf "sweep %d reverted: %s" (o.iterations + 1))
             o.reverted)
    in
    List.iter (degrade stage) reasons;
    (o.circuit, reasons <> [])
  in
  let run () =
    (match option_problems options with
    | [] -> ()
    | problems ->
      raise
        (Abort
           (Diagnostic.error ~stage:Diagnostic.Driver
              ~kind:Diagnostic.Unsupported
              (String.concat "; " problems))));
    let sp = Trace.start trace "front-end" in
    let circuit = guard Diagnostic.Front_end (fun () -> front_end input) in
    Trace.stop_with trace sp ~cost:unmapped_cost circuit;
    let circuit = inject Diagnostic.Front_end circuit in
    let circuit = validate_stream Diagnostic.Front_end circuit in
    if Circuit.n_qubits circuit > Device.n_qubits device then
      raise
        (Abort
           (Diagnostic.error ~stage:Diagnostic.Front_end
              ~kind:Diagnostic.Capacity
              (Printf.sprintf "circuit needs %d qubits but %s has only %d"
                 (Circuit.n_qubits circuit) (Device.name device)
                 (Device.n_qubits device))));
    let t0 = Trace.now_ns () in
    (* Widening to the device register first gives generalized-Toffoli
       decomposition its borrowable qubits. *)
    let reference = Circuit.widen circuit (Device.n_qubits device) in
    let staged =
      (* The technology-independent stage always optimizes by gate counts
         (Eqn. 2): hardware-aware costs like per-coupling fidelity are
         only meaningful once gates sit on physical qubits. *)
      if not options.pre_optimize then reference
      else if Trace.past deadline_ns then begin
        degrade Diagnostic.Pre_optimize "skipped: wall-clock deadline exceeded";
        reference
      end
      else begin
        let sp =
          Trace.start_with trace "pre-optimize" ~cost:unmapped_cost reference
        in
        let staged, was_degraded =
          optimize Diagnostic.Pre_optimize ~name:"pre-optimize" ~cost:Cost.eqn2
            reference
        in
        Trace.stop_with trace sp ~cost:unmapped_cost
          ~counters:(if was_degraded then [ ("degraded", 1.0) ] else [])
          staged;
        staged
      end
    in
    let staged = inject Diagnostic.Pre_optimize staged in
    contract Diagnostic.Pre_optimize
      (Lint.Contract.after_optimize ~before:reference ~after:staged);
    let sp = Trace.start_with trace "decompose" ~cost:unmapped_cost staged in
    let native =
      guard Diagnostic.Decompose (fun () -> Decompose.to_native staged)
    in
    Trace.stop_with trace sp ~cost:unmapped_cost native;
    let native = inject Diagnostic.Decompose native in
    contract Diagnostic.Decompose (Lint.Contract.after_decompose native);
    (* Placement relabels the register; verification then compares
       against the identically-relabelled reference. *)
    let placement =
      if options.use_placement && not (Device.is_simulator device) then
        if Trace.past deadline_ns then begin
          degrade Diagnostic.Place "skipped: wall-clock deadline exceeded";
          None
        end
        else begin
          let sp = Trace.start trace "place" in
          let a = guard Diagnostic.Place (fun () -> Place.choose device native) in
          let moved = ref 0 in
          Array.iteri (fun l p -> if l <> p then incr moved) a;
          Trace.stop trace sp
            ~counters:[ ("moved_qubits", float_of_int !moved) ]
            ();
          Some a
        end
      else None
    in
    let native, reference =
      match placement with
      | Some a ->
        guard Diagnostic.Place (fun () ->
            (Place.apply a native, Place.apply a reference))
      | None -> (native, reference)
    in
    let native = inject Diagnostic.Place native in
    let swap_budget = options.budgets.swap_budget in
    let route ?stats ?swap_budget d c =
      match options.router with
      | Ctr -> Route.route_circuit_swaps ?stats ?swap_budget d c
      | Weighted_ctr cal ->
        Route.route_circuit_swaps ?stats ?swap_budget
          ~weight:(Calibration.swap_hop_weight cal) d c
      | Tracking -> Route.route_circuit_tracking ?stats ?swap_budget d c
    in
    (* The verifier reroutes gates blockwise for the staged proof; those
       repeats must not inflate the route pass's counters, and they must
       not be budget-capped (the proof needs fully-legal blocks). *)
    let route_for_verify d c = route d c in
    let route_stats =
      if Trace.enabled trace || swap_budget <> None then
        Some (Route.new_stats ())
      else None
    in
    let sp = Trace.start_with trace "route" ~cost:unmapped_cost native in
    let routed_swaps =
      guard Diagnostic.Route (fun () ->
          route ?stats:route_stats ?swap_budget device native)
    in
    let unrouted =
      match route_stats with None -> 0 | Some s -> s.Route.unrouted_cnots
    in
    if unrouted > 0 then
      degrade Diagnostic.Route
        (Printf.sprintf "%d CNOT%s left as written: SWAP budget exhausted"
           unrouted
           (if unrouted = 1 then "" else "s"));
    (* A fidelity cost is undefined on a CNOT the device cannot execute,
       so no later stage, and no span, could price the routed circuit. *)
    (match cost with
    | Cost.Log_fidelity _ when unrouted > 0 ->
      raise
        (Abort
           (Diagnostic.error ~stage:Diagnostic.Route
              ~kind:Diagnostic.Budget_exhausted
              "the fidelity cost is undefined on unrouted CNOTs"))
    | Cost.Log_fidelity _ | Cost.Linear _ -> ());
    let route_counters =
      (match route_stats with
      | None -> []
      | Some s ->
        [
          ("rerouted_cnots", float_of_int s.Route.rerouted_cnots);
          ("reversed_cnots", float_of_int s.Route.reversed_cnots);
          ("swaps_inserted", float_of_int s.Route.swaps_inserted);
          ("swap_hops", float_of_int s.Route.swap_hops);
          ("max_path_hops", float_of_int s.Route.max_path_hops);
          ("unrouted_cnots", float_of_int s.Route.unrouted_cnots);
        ])
      @ if unrouted > 0 then [ ("degraded", 1.0) ] else []
    in
    Trace.stop_with trace sp ~cost ~counters:route_counters routed_swaps;
    let routed_swaps = inject Diagnostic.Route routed_swaps in
    let sp = Trace.start_with trace "expand-swaps" ~cost routed_swaps in
    let unoptimized =
      guard Diagnostic.Expand_swaps (fun () ->
          Route.expand_swaps device routed_swaps)
    in
    Trace.stop_with trace sp ~cost unoptimized;
    let unoptimized = inject Diagnostic.Expand_swaps unoptimized in
    (* A budget-degraded route intentionally hands over unrouted CNOTs;
       auditing it against full device legality would report the
       degradation as a broken pass. *)
    if unrouted = 0 then
      contract Diagnostic.Route (Lint.Contract.after_route device unoptimized);
    let optimized =
      if not options.post_optimize then unoptimized
      else if Trace.past deadline_ns then begin
        degrade Diagnostic.Post_optimize
          "skipped: wall-clock deadline exceeded";
        unoptimized
      end
      else begin
        (* Two-level optimization: first cancel whole CTR SWAPs (a
           swap-back annihilates the next gate's swap-forward), then
           expand the survivors to CNOTs and optimize at gate level. *)
        let sp = Trace.start_with trace "post-optimize" ~cost routed_swaps in
        let level name c =
          optimize Diagnostic.Post_optimize ~name ~device ~cost c
        in
        let swap_level, swap_degraded =
          level "post-optimize/swap-level" routed_swaps
        in
        let expanded =
          guard Diagnostic.Post_optimize (fun () ->
              Route.expand_swaps device swap_level)
        in
        let gate_level, gate_degraded =
          level "post-optimize/gate-level" expanded
        in
        Trace.stop_with trace sp ~cost
          ~counters:
            (if swap_degraded || gate_degraded then [ ("degraded", 1.0) ]
             else [])
          gate_level;
        gate_level
      end
    in
    let optimized = inject Diagnostic.Post_optimize optimized in
    contract Diagnostic.Post_optimize
      (Lint.Contract.after_optimize ~before:unoptimized ~after:optimized);
    if unrouted = 0 then
      contract Diagnostic.Post_optimize
        (Lint.Contract.after_route device optimized);
    (* State folding preserves the state prepared from |0...0>, not the
       unitary — so the pipeline's unitary-equivalence verification
       below runs against the pre-fold circuit, and the fold pass
       answers for its own rewrites with its zero-state oracle. *)
    let prefold = optimized in
    let optimized =
      if not options.fold_states then optimized
      else begin
        let fold =
          guard Diagnostic.Post_optimize (fun () ->
              Optimize.fold_known_states ~budget:oracle_budget ~trace optimized)
        in
        Option.iter
          (fun why ->
            degrade Diagnostic.Post_optimize
              ("fold-states rewrite reverted: " ^ why))
          fold.Optimize.reverted;
        fold.Optimize.circuit
      end
    in
    let elapsed_seconds = wall_seconds_since t0 in
    let unoptimized_cost, optimized_cost =
      guard Diagnostic.Post_optimize (fun () ->
          (Cost.evaluate cost unoptimized, Cost.evaluate cost optimized))
    in
    let verification, verification_seconds =
      match options.verification with
      | Skip -> (Skipped, 0.0)
      | (Qmdd_check _ | Fallback _) as mode ->
        if Trace.past deadline_ns then
          ( (match mode with
            | Fallback _ ->
              Unverified "wall-clock deadline exceeded before verification"
            | Qmdd_check _ | Skip -> Budget_exceeded),
            0.0 )
        else
          guard Diagnostic.Verify (fun () ->
              verify mode options ~trace ~budget:oracle_budget
                ~route:route_for_verify ~routed_all:(unrouted = 0)
                ~warn:(fun d -> warnings := d :: !warnings)
                ~native ~unoptimized ~optimized:prefold reference)
    in
    (match verification with
    | Budget_exceeded -> degrade Diagnostic.Verify "QMDD node budget exhausted"
    | Unverified reason -> degrade Diagnostic.Verify reason
    | Verified | Verified_staged | Verified_sim | Mismatch | Skipped -> ());
    {
      reference;
      placement;
      unoptimized;
      optimized;
      unoptimized_cost;
      optimized_cost;
      percent_decrease =
        Cost.percent_decrease ~before:unoptimized_cost ~after:optimized_cost;
      verification;
      degraded = List.rev !degradations;
      diagnostics = List.rev !warnings;
      elapsed_seconds;
      verification_seconds;
      trace = Trace.spans trace;
    }
  in
  match run () with
  | report -> Ok report
  | exception Abort d -> Error (List.rev (d :: !warnings))

let compile ?trace ?inject options input =
  match compile_checked ?trace ?inject options input with
  | Ok r -> r
  | Error ds -> (
    let fatal =
      match
        List.find_opt (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds
      with
      | Some d -> d
      | None ->
        Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Internal
          "compile_checked failed without an error diagnostic"
    in
    match fatal.Diagnostic.kind with
    | Diagnostic.Contract_violation ->
      raise (Lint.Contract.Violated fatal.Diagnostic.message)
    | _ -> raise (Compile_error (Diagnostic.to_string fatal)))

let extension path =
  (* Only the basename may contribute the dot: a path like
     "runs.v2/adder" has no extension, not ".v2/adder".  A trailing
     separator names a directory, which has none either. *)
  if path = "" || path.[String.length path - 1] = '/' then ""
  else
    let base = Filename.basename path in
    match String.rindex_opt base '.' with
    | None -> ""
    | Some i ->
      String.lowercase_ascii (String.sub base i (String.length base - i))

(* The one format dispatch: files (read whole by [parse_file_checked])
   and the serve daemon's in-memory request bodies both parse here. *)
let parse_source_checked ~format ?path source =
  let fmt =
    let s = String.lowercase_ascii (String.trim format) in
    if String.length s > 0 && s.[0] = '.' then
      String.sub s 1 (String.length s - 1)
    else s
  in
  let file =
    match path with Some p -> p | None -> Printf.sprintf "<%s source>" fmt
  in
  let parse_error fmt_name line message =
    Error
      (Diagnostic.error ~file ~line ~stage:Diagnostic.Front_end
         ~kind:Diagnostic.Parse
         (Printf.sprintf "%s parse error: %s" fmt_name message))
  in
  match
    match fmt with
    | "pla" -> Ok (Classical (Qformats.Pla.of_string source))
    | "qasm" -> Ok (Quantum (Qformats.Qasm.of_string source))
    | "qc" -> Ok (Quantum (Qformats.Qc.of_string source).Qformats.Qc.circuit)
    | "real" ->
      Ok (Quantum (Qformats.Real.of_string source).Qformats.Real.circuit)
    | other ->
      Error
        (Diagnostic.error ~file ~stage:Diagnostic.Driver
           ~kind:Diagnostic.Unsupported
           (Printf.sprintf "unsupported input format %S" other))
  with
  | result -> result
  | exception Qformats.Pla.Parse_error { line; message } ->
    parse_error "PLA" line message
  | exception Qformats.Qasm.Parse_error { line; message } ->
    parse_error "QASM" line message
  | exception Qformats.Qc.Parse_error { line; message } ->
    parse_error ".qc" line message
  | exception Qformats.Real.Parse_error { line; message } ->
    parse_error ".real" line message

let parse_file_checked path =
  match extension path with
  | (".pla" | ".qasm" | ".qc" | ".real") as ext -> (
    match In_channel.with_open_text path In_channel.input_all with
    | source -> parse_source_checked ~format:ext ~path source
    | exception Sys_error msg ->
      Error
        (Diagnostic.error ~file:path ~stage:Diagnostic.Driver
           ~kind:Diagnostic.Io msg))
  | other ->
    Error
      (Diagnostic.error ~file:path ~stage:Diagnostic.Driver
         ~kind:Diagnostic.Unsupported
         (Printf.sprintf "unsupported input extension %S" other))

let parse_file path =
  match parse_file_checked path with
  | Ok input -> input
  | Error d -> raise (Compile_error (Diagnostic.to_string d))

(* {2 Content digests}

   A compile request is a (source, device, options) triple; the digests
   below turn one into a stable cache key.  Two requests share a key
   exactly when the compiler cannot tell them apart — the key never
   involves file paths or timestamps. *)

let digest_hex s = Digest.to_hex (Digest.string s)
let source_digest source = digest_hex source
let device_digest device = digest_hex (Device.to_dict_string device)

let canonical_options options =
  let buf = Buffer.create 256 in
  let field name value =
    Buffer.add_string buf name;
    Buffer.add_char buf '=';
    Buffer.add_string buf value;
    Buffer.add_char buf ';'
  in
  let flag name b = field name (string_of_bool b) in
  let opt_int = function None -> "none" | Some i -> string_of_int i in
  let opt_float = function
    | None -> "none"
    | Some f -> Printf.sprintf "%.17g" f
  in
  field "cost" (Cost.to_string options.cost);
  field "router"
    (match options.router with
    | Ctr -> "ctr"
    | Weighted_ctr cal -> "weighted-ctr:" ^ Calibration.digest cal
    | Tracking -> "tracking");
  flag "pre_optimize" options.pre_optimize;
  flag "post_optimize" options.post_optimize;
  flag "fold_states" options.fold_states;
  flag "use_placement" options.use_placement;
  field "verification"
    (match options.verification with
    | Skip -> "skip"
    | Qmdd_check { node_budget } -> "qmdd:" ^ opt_int node_budget
    | Fallback { node_budget; max_sim_qubits } ->
      Printf.sprintf "fallback:%s:%d" (opt_int node_budget) max_sim_qubits);
  flag "check_contracts" options.check_contracts;
  field "rewrite_rules" (Rewrite.selection_to_string options.rewrite_rules);
  field "deadline_seconds" (opt_float options.budgets.deadline_seconds);
  field "max_optimize_iterations"
    (opt_int options.budgets.max_optimize_iterations);
  field "swap_budget" (opt_int options.budgets.swap_budget);
  Buffer.contents buf

let options_digest options = digest_hex (canonical_options options)

let emit_qasm report = Qformats.Qasm.to_string report.optimized

let verification_to_string = function
  | Verified -> "verified (QMDD)"
  | Verified_staged -> "verified (QMDD, staged)"
  | Verified_sim -> "verified (dense-matrix oracle)"
  | Mismatch -> "MISMATCH"
  | Budget_exceeded -> "not verified (node budget exceeded)"
  | Unverified reason -> Printf.sprintf "not verified (%s)" reason
  | Skipped -> "skipped"

let pp_report fmt r =
  let pr label c cost =
    let st = Circuit.full_stats c in
    Format.fprintf fmt
      "  %-12s T=%d cnot=%d gates=%d depth=%d t-depth=%d cost=%g@\n" label
      st.Circuit.fs_t_count st.Circuit.fs_cnot_count st.Circuit.fs_gate_volume
      st.Circuit.fs_depth st.Circuit.fs_t_depth cost
  in
  Format.fprintf fmt "compilation report:@\n";
  pr "unoptimized" r.unoptimized r.unoptimized_cost;
  pr "optimized" r.optimized r.optimized_cost;
  Format.fprintf fmt "  improvement  %.2f%%@\n" r.percent_decrease;
  (match r.placement with
  | None -> ()
  | Some a ->
    let moved =
      Array.to_list (Array.mapi (fun l p -> (l, p)) a)
      |> List.filter (fun (l, p) -> l <> p)
    in
    let shown = List.filteri (fun i _ -> i < 12) moved in
    let hidden = List.length moved - List.length shown in
    Format.fprintf fmt "  placement    %s%s@\n"
      (if moved = [] then "identity"
       else
         String.concat ", "
           (List.map (fun (l, p) -> Printf.sprintf "q%d->q%d" l p) shown))
      (if hidden > 0 then Printf.sprintf " … (+%d more)" hidden else ""));
  List.iter
    (fun (stage, reason) ->
      Format.fprintf fmt "  DEGRADED     %s: %s@\n"
        (Diagnostic.stage_to_string stage)
        reason)
    r.degraded;
  Format.fprintf fmt "  verification %s (%.3fs)@\n"
    (verification_to_string r.verification)
    r.verification_seconds;
  Format.fprintf fmt "  synthesis    %.3fs@\n" r.elapsed_seconds

let verification_tag = function
  | Verified -> "verified"
  | Verified_staged -> "verified-staged"
  | Verified_sim -> "verified-sim"
  | Mismatch -> "mismatch"
  | Budget_exceeded -> "budget-exceeded"
  | Unverified _ -> "unverified"
  | Skipped -> "skipped"

let report_to_json ?(meta = []) r =
  let open Trace in
  let circuit label c c_cost =
    let snapshot_fields =
      match Trace.snapshot_to_json (Trace.snapshot c) with
      | Json.Obj fields -> List.filter (fun (k, _) -> k <> "cost") fields
      | _ -> []
    in
    ( label,
      Json.Obj
        (("n_qubits", Json.Int (Circuit.n_qubits c))
        :: snapshot_fields
        @ [ ("cost", Json.Float c_cost) ]) )
  in
  Json.Obj
    (meta
    @ [
        circuit "unoptimized" r.unoptimized r.unoptimized_cost;
        circuit "optimized" r.optimized r.optimized_cost;
        ("percent_decrease", Json.Float r.percent_decrease);
        ( "placement",
          match r.placement with
          | None -> Json.Null
          | Some a ->
            Json.List (Array.to_list (Array.map (fun p -> Json.Int p) a)) );
        ("verification", Json.String (verification_tag r.verification));
        ( "verification_reason",
          match r.verification with
          | Unverified reason -> Json.String reason
          | Verified | Verified_staged | Verified_sim | Mismatch
          | Budget_exceeded | Skipped ->
            Json.Null );
        ( "degraded",
          Json.List
            (List.map
               (fun (stage, reason) ->
                 Json.Obj
                   [
                     ("stage", Json.String (Diagnostic.stage_to_string stage));
                     ("reason", Json.String reason);
                   ])
               r.degraded) );
        ( "diagnostics",
          Json.List (List.map Diagnostic.to_json r.diagnostics) );
        ("elapsed_seconds", Json.Float r.elapsed_seconds);
        ("verification_seconds", Json.Float r.verification_seconds);
        ("passes", Json.List (List.map Trace.span_to_json r.trace));
      ])
