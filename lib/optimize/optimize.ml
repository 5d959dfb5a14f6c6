let same_pair (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

let cancels g h =
  match (Gate.phase_angle g, Gate.phase_angle h) with
  | Some (a, qa), Some (b, qb) ->
    (* Z, S, Sdg, T, Tdg and Phase all read as diag(1, e^(i theta)), so
       any two whose angles sum to 0 mod 2 pi cancel exactly. *)
    qa = qb && Gate.phase_gate (a +. b) qa = None
  | (Some _ | None), (Some _ | None) -> (
    match (g, h) with
    | Gate.X a, Gate.X b | Gate.Y a, Gate.Y b | Gate.H a, Gate.H b -> a = b
    (* Same-axis rotations cancel only when the angles sum to zero: two
       that sum to 2 pi multiply to -I, and the optimizer promises
       exactness. *)
    | Gate.Rx (ta, a), Gate.Rx (tb, b)
    | Gate.Ry (ta, a), Gate.Ry (tb, b)
    | Gate.Rz (ta, a), Gate.Rz (tb, b) ->
      a = b && abs_float (ta +. tb) < 1e-12
    | Gate.Cnot x, Gate.Cnot y -> x.control = y.control && x.target = y.target
    | Gate.Cz (a1, b1), Gate.Cz (a2, b2) | Gate.Swap (a1, b1), Gate.Swap (a2, b2)
      ->
      same_pair (a1, b1) (a2, b2)
    | Gate.Toffoli a, Gate.Toffoli b ->
      a.target = b.target && same_pair (a.c1, a.c2) (b.c1, b.c2)
    | Gate.Mct a, Gate.Mct b ->
      a.target = b.target
      && List.sort Int.compare a.controls = List.sort Int.compare b.controls
    | _, _ -> false)

let cancel_pass ?(lookback = 50) c =
  (* [acc] holds processed gates in reverse order (head = most recent),
     each paired with its support, computed once per gate: the backward
     scan tests commutation up to [lookback] times per incoming gate.
     The incoming gate deletes the first earlier gate it cancels with,
     provided it commutes with everything in between. *)
  let rec try_cancel acc (g, sg) depth =
    match acc with
    | [] -> None
    | ((h, sh) as entry) :: earlier ->
      if depth <= 0 then None
      else if cancels h g then Some earlier
      else if Gate.commutes_with_support sg g sh h then
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

(* Window-signature memo for the identity test.  Support-compacted
   windows are position independent — [H 7; X 9; H 7] and [H 0; X 2;
   H 0] compact to the same signature — so each distinct signature pays
   for one dense [Sim.unitary] ever, across sweeps and across circuits
   (the verdict depends only on the gate sequence).  The table is a pure
   cache: on overflow it is dropped wholesale and verdicts are simply
   re-simulated.

   Ownership: the table lives in domain-local storage, one table per
   domain.  Domain-parallel compiles (the Parallel runner) each get a
   private memo and never contend; the verdict is a pure function of
   the signature, so duplicated entries across domains cost only the
   re-simulation.  Within one domain the table is still a plain
   Hashtbl — sys-threads of the same domain must not run optimize
   concurrently (the serve daemon's compile lock enforces this). *)
let window_memo_key : (Gate.t list, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let window_memo_limit = 65536

(* Gates whose matrix can be arbitrarily close to the identity
   (vanishing angle).  Every other library gate is at distance >=
   |e^(i pi/4) - 1| ~ 0.765 from the identity, many orders of magnitude
   above the 1e-9 tolerance. *)
let near_identity_possible = function
  | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ -> true
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
  | Gate.Toffoli _ | Gate.Mct _ ->
    false

(* Cheap sound rejection: a qubit touched by exactly one window gate
   forces that gate to act as the identity on it.  Factoring the window
   unitary over the lone qubit's operator blocks shows the gate would
   have to be within ~4 eps of V (x) I for some unitary V on its other
   qubits — and every parameter-free library gate is at distance O(1)
   from that set.  Only near-zero-angle rotations can pass, so they are
   exempt and fall through to the simulation. *)
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
  (* Exact-inverse pair: g then (adjoint g) multiplies to the identity
     by construction; no simulation needed. *)
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
    let window_memo = Domain.DLS.get window_memo_key in
    (match Hashtbl.find_opt window_memo signature with
    | Some verdict -> verdict
    | None ->
      let compact = Circuit.make ~n:(List.length support) signature in
      let verdict =
        Mathkit.Matrix.is_identity ~eps:1e-9 (Sim.unitary compact)
      in
      if Hashtbl.length window_memo >= window_memo_limit then
        Hashtbl.reset window_memo;
      Hashtbl.replace window_memo signature verdict;
      verdict)

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

type outcome = {
  circuit : Circuit.t;
  iterations : int;
  hit_iteration_cap : bool;
  hit_deadline : bool;
  reverted : string option;
}

(* The passes of one sweep, in order.  Each returns [None] when it left
   the circuit alone, or the rewritten circuit with the rule counters to
   bump if the pass is kept. *)
let sweep_passes ~device ~rules =
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
    shrinking (fun c -> cancel_pass c);
    templates;
    counted "rotation-merge" Rewrite.merge_rotations;
    counted "phase-merge" Rewrite.merge_phase_polynomial;
    counted "clifford-normalize" Rewrite.normalize_cliffords;
    shrinking (fun c -> remove_identity_windows c);
  ]

(* Run the passes over [c], whose cost is [k].  A pass is kept only when
   it does not raise the cost; the running cost is carried along, so
   each rewritten circuit is evaluated once. *)
let sweep ~cost ~trace passes (c, k) =
  List.fold_left
    (fun (c0, k0) pass ->
      match pass c0 with
      | None -> (c0, k0)
      | Some (c1, fired) ->
        let k1 = Cost.evaluate cost c1 in
        if k1 <= k0 +. 1e-9 then begin
          List.iter
            (fun (name, n) ->
              Trace.bump trace ("rewrite/" ^ name) (float_of_int n))
            fired;
          (c1, k1)
        end
        else begin
          Trace.bump trace "rewrite/reverted" 1.0;
          (c0, k0)
        end)
    (c, k) passes

let optimize_budgeted ?device ?(cost = Cost.eqn2) ?(trace = Trace.disabled)
    ?(stage = "optimize") ?(rules = Rewrite.default_selection) ?check
    ?max_iterations ?deadline_ns c =
  let passes = sweep_passes ~device ~rules in
  let capped i =
    match max_iterations with None -> false | Some cap -> i > cap
  in
  (* [iterations] counts accepted sweeps on every exit path. *)
  let stop ?(cap = false) ?(deadline = false) ?reverted i best =
    { circuit = best; iterations = i - 1; hit_iteration_cap = cap;
      hit_deadline = deadline; reverted }
  in
  (* One span per sweep, the rejected final sweep included: its wall
     time is paid whether or not the result is kept.  Budgets are
     checked before starting a sweep, so a capped run returns the best
     circuit found so far rather than aborting. *)
  let rec loop i best best_cost =
    if capped i then stop ~cap:true i best
    else if Trace.past deadline_ns then stop ~deadline:true i best
    else begin
      let sp =
        Trace.start_with trace (Printf.sprintf "%s/iteration-%d" stage i) ~cost
          best
      in
      let candidate, candidate_cost =
        sweep ~cost ~trace passes (best, best_cost)
      in
      let improved = candidate_cost < best_cost in
      (* Strict mode: the oracle certifies every sweep that would be
         kept, so one check covers all of its passes. *)
      let verdict =
        match check with
        | Some budget when improved -> Oracle.unitary budget best candidate
        | Some _ | None -> Oracle.Equal
      in
      if verdict = Oracle.Different then
        Trace.bump trace "rewrite/oracle-rejected" 1.0;
      let refusal = Oracle.refusal verdict in
      Trace.stop_with trace sp ~cost
        ~counters:[ ("improved", if improved && refusal = None then 1.0 else 0.0) ]
        candidate;
      (* A refused sweep is dropped and the run ends: the passes are
         deterministic, so the next sweep would repeat it. *)
      match refusal with
      | Some why -> stop ~reverted:why i best
      | None ->
        if improved then loop (i + 1) candidate candidate_cost else stop i best
    end
  in
  loop 1 c (Cost.evaluate cost c)

let optimize ?device ?cost ?trace ?stage ?rules c =
  (optimize_budgeted ?device ?cost ?trace ?stage ?rules c).circuit

(* ---- abstract-state folding ------------------------------------------ *)

type fold_outcome = {
  circuit : Circuit.t;
  deleted : int;
  demoted : int;
  checked : bool;
  reverted : string option;
}

let fold_known_states ?(budget = Oracle.default_budget)
    ?(trace = Trace.disabled) c =
  let span = Trace.start trace "fold-states" in
  let r = Absint.analyze c in
  let unchanged =
    { circuit = c; deleted = 0; demoted = 0; checked = false; reverted = None }
  in
  let outcome =
    if r.Absint.dead = [] && r.Absint.demoted = [] then unchanged
    else begin
      let dead = Hashtbl.create 16 and demote = Hashtbl.create 16 in
      List.iter (fun (i, _, _) -> Hashtbl.replace dead i ()) r.Absint.dead;
      List.iter
        (fun (i, _, body, _) -> Hashtbl.replace demote i body)
        r.Absint.demoted;
      let gates =
        List.concat
          (List.mapi
             (fun i g ->
               if Hashtbl.mem dead i then []
               else Option.value ~default:[ g ] (Hashtbl.find_opt demote i))
             (Circuit.gates c))
      in
      let folded = Circuit.make ~n:(Circuit.n_qubits c) gates in
      match Oracle.refusal (Oracle.zero_state budget c folded) with
      | None ->
        { circuit = folded; deleted = Hashtbl.length dead;
          demoted = Hashtbl.length demote; checked = true; reverted = None }
      | Some why ->
        (* Keep the input: the pass must never be the place correctness
           dies. *)
        { unchanged with checked = true; reverted = Some why }
    end
  in
  Trace.stop trace span
    ~counters:
      [
        ("deleted", float_of_int outcome.deleted);
        ("demoted", float_of_int outcome.demoted);
        ("checked", if outcome.checked then 1.0 else 0.0);
        ("ok", if outcome.reverted = None then 1.0 else 0.0);
      ]
    ();
  outcome
