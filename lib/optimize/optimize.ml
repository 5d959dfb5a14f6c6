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
   (the verdict depends only on the gate sequence).  The key is the
   signature's byte encoding ([window_key]), so a lookup allocates one
   short string and no gates.  The table is a pure cache: on overflow it
   is dropped wholesale and verdicts are simply re-simulated.

   Ownership: one process-wide table under [window_memo_lock], so a
   verdict any domain or thread simulated is never simulated again.
   The lock is held for one lookup or one insert, never across a
   simulation. *)
module Memo = Hashtbl.Make (String)

let window_memo : bool Memo.t = Memo.create 4096
let window_memo_lock = Mutex.create ()
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

(* The operands of a gate in constructor order, controls first: the
   order [Gate.rename] keeps, so a window's key and its simulated
   signature list the same qubits. *)
let operand_count = function
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ ->
    1
  | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _ -> 2
  | Gate.Toffoli _ -> 3
  | Gate.Mct { controls; _ } -> List.length controls + 1

let write_operands ops pos = function
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q
  | Gate.T q | Gate.Tdg q
  | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    ops.(pos) <- q
  | Gate.Cnot { control = a; target = b } | Gate.Cz (a, b) | Gate.Swap (a, b)
    ->
    ops.(pos) <- a;
    ops.(pos + 1) <- b
  | Gate.Toffoli { c1; c2; target } ->
    ops.(pos) <- c1;
    ops.(pos + 1) <- c2;
    ops.(pos + 2) <- target
  | Gate.Mct { controls; target } ->
    List.iteri (fun k q -> ops.(pos + k) <- q) controls;
    ops.(pos + List.length controls) <- target

(* One flat scan's view of the circuit, built once per call.  The
   operands of [gates.(j)] are [ops.(first.(j)) .. ops.(first.(j+1) - 1)].
   [support] holds the qubits of the window being grown, in the order
   they were first touched; the window of [w] gates spans the first
   [width.(w)] of them. *)
type scan = {
  gates : Gate.t array;
  first : int array;
  ops : int array;
  support : int array;
  width : int array;
}

let scan_of gates ~max_window =
  let n = Array.length gates in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun j g -> first.(j + 1) <- first.(j) + operand_count g) gates;
  let ops = Array.make first.(n) 0 in
  Array.iteri (fun j g -> write_operands ops first.(j) g) gates;
  { gates; first; ops; support = Array.make 3 0;
    width = Array.make (min max_window n + 1) 0 }

let rec mem_prefix a k q = k > 0 && (a.(k - 1) = q || mem_prefix a (k - 1) q)

let touches s j q =
  let k = ref s.first.(j) and stop = s.first.(j + 1) in
  while !k < stop && s.ops.(!k) <> q do
    incr k
  done;
  !k < stop

(* The longest window from gate [i], of at most [max_window] gates,
   that stays within 3 qubits, recording the width of every shorter one.
   A support only grows, so no longer window can fit.  A qubit that
   would be the fourth ends the growth before it is stored: one gate
   can add several new qubits (a Toffoli adds 3 to a 2-qubit prefix),
   and none of them may overrun the buffer. *)
let grow s i ~max_window =
  let n = Array.length s.gates in
  let count = ref 0 and len = ref 0 and fits = ref true in
  while !fits && !len < max_window && i + !len < n do
    let j = i + !len in
    let k = ref s.first.(j) in
    while !fits && !k < s.first.(j + 1) do
      let q = s.ops.(!k) in
      if not (mem_prefix s.support !count q) then
        if !count = 3 then fits := false
        else begin
          s.support.(!count) <- q;
          incr count
        end;
      incr k
    done;
    if !fits then begin
      incr len;
      s.width.(!len) <- !count
    end
  done;
  !len

(* Cheap sound rejection: a qubit touched by exactly one window gate
   forces that gate to act as the identity on it.  Factoring the window
   unitary over the lone qubit's operator blocks shows the gate would
   have to be within ~4 eps of V (x) I for some unitary V on its other
   qubits — and every parameter-free library gate is at distance O(1)
   from that set.  Only near-zero-angle rotations can pass, so they are
   exempt and fall through to the simulation. *)
let has_lone_touch s i w =
  let ruled_out = ref false and t = ref 0 in
  while (not !ruled_out) && !t < s.width.(w) do
    let q = s.support.(!t) in
    let touching = ref 0 and lone = ref i in
    for j = i to i + w - 1 do
      if touches s j q then begin
        incr touching;
        lone := j
      end
    done;
    ruled_out := !touching = 1 && not (near_identity_possible s.gates.(!lone));
    incr t
  done;
  !ruled_out

(* The rank of [q] in the window's sorted support: the sorted-support
   compaction, so [Cnot 5 -> 2] compacts to [Cnot 1 -> 0]. *)
let rank s k q =
  let r = ref 0 in
  for t = 0 to k - 1 do
    if s.support.(t) < q then incr r
  done;
  !r

let put_byte b pos byte = Bytes.set b pos (Char.unsafe_chr byte)

let kind_byte = function
  | Gate.X _ -> 0
  | Gate.Y _ -> 1
  | Gate.Z _ -> 2
  | Gate.H _ -> 3
  | Gate.S _ -> 4
  | Gate.Sdg _ -> 5
  | Gate.T _ -> 6
  | Gate.Tdg _ -> 7
  | Gate.Rx _ -> 8
  | Gate.Ry _ -> 9
  | Gate.Rz _ -> 10
  | Gate.Phase _ -> 11
  | Gate.Cnot _ -> 12
  | Gate.Cz _ -> 13
  | Gate.Swap _ -> 14
  | Gate.Toffoli _ -> 15
  | Gate.Mct _ -> 16

(* Bytes a gate's key takes after its kind byte and operands: the 64
   bits of an angle, or the terminator of an [Mct]'s operand list. *)
let key_extra = function
  | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ -> 8
  | Gate.Mct _ -> 1
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
  | Gate.Toffoli _ ->
    0

(* The memo key of the window of [w] gates from [i]: per gate, a kind
   byte, the compacted operands in constructor order (each below 3), and
   the IEEE bits of any angle.  The kind byte fixes every gate's length
   except an [Mct]'s, whose operands end in the byte 255, which no
   compacted qubit takes.  So the encoding is prefix-free, and two
   windows share a key only when their compacted signatures are equal,
   for every window length; the register width is the largest operand
   plus one. *)
let window_key s i w =
  let k = s.width.(w) in
  let len = ref 0 in
  for j = i to i + w - 1 do
    len := !len + 1 + s.first.(j + 1) - s.first.(j) + key_extra s.gates.(j)
  done;
  let b = Bytes.create !len in
  let pos = ref 0 in
  for j = i to i + w - 1 do
    let g = s.gates.(j) in
    put_byte b !pos (kind_byte g);
    incr pos;
    for o = s.first.(j) to s.first.(j + 1) - 1 do
      put_byte b !pos (rank s k s.ops.(o));
      incr pos
    done;
    match g with
    | Gate.Rx (theta, _) | Gate.Ry (theta, _) | Gate.Rz (theta, _)
    | Gate.Phase (theta, _) ->
      Bytes.set_int64_le b !pos (Int64.bits_of_float theta);
      pos := !pos + 8
    | Gate.Mct _ ->
      put_byte b !pos 255;
      incr pos
    | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
    | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
    | Gate.Toffoli _ ->
      ()
  done;
  Bytes.unsafe_to_string b

(* The dense verdict on the compacted window, memoized (see [Memo]).
   The lookup is inline so that a hit allocates nothing.  The serve
   daemon's GC alarm may raise inside [find]; the lock is released on
   that path too. *)
let memo_verdict s i w =
  let key = window_key s i w in
  Mutex.lock window_memo_lock;
  match Memo.find window_memo key with
  | verdict ->
    Mutex.unlock window_memo_lock;
    verdict
  | exception Not_found ->
    Mutex.unlock window_memo_lock;
    let k = s.width.(w) in
    let signature =
      List.init w (fun t -> Gate.rename (rank s k) s.gates.(i + t))
    in
    let compact = Circuit.make ~n:k signature in
    let verdict = Mathkit.Matrix.is_identity ~eps:1e-9 (Sim.unitary compact) in
    Mutex.protect window_memo_lock (fun () ->
        if Memo.length window_memo >= window_memo_limit then
          Memo.reset window_memo;
        Memo.replace window_memo key verdict);
    verdict
  | exception e ->
    Mutex.unlock window_memo_lock;
    raise e

let is_identity s i w =
  (* Exact-inverse pair: g then (adjoint g) multiplies to the identity
     by construction; no simulation needed. *)
  (w = 2 && Gate.equal s.gates.(i + 1) (Gate.adjoint s.gates.(i)))
  || ((not (has_lone_touch s i w)) && memo_verdict s i w)

(* The longest identity window from [i], trying the widest first;
   0 when there is none. *)
let rec identity_window s i w =
  if w < 2 then 0
  else if is_identity s i w then w
  else identity_window s i (w - 1)

let remove_identity_windows ?(max_window = 6) c =
  let gates = Array.of_list (Circuit.gates c) in
  let n = Array.length gates in
  let s = scan_of gates ~max_window:(max max_window 0) in
  (* Deleted windows as (start, length), latest first. *)
  let deleted = ref [] in
  let i = ref 0 in
  while !i < n do
    match identity_window s !i (grow s !i ~max_window) with
    | 0 -> incr i
    | w ->
      deleted := (!i, w) :: !deleted;
      i := !i + w
  done;
  (* Gates [0, j) minus the deletions, rebuilt back to front. *)
  let rec rebuild j deleted acc =
    match deleted with
    | (start, w) :: earlier when j = start + w -> rebuild start earlier acc
    | _ -> if j = 0 then acc else rebuild (j - 1) deleted (gates.(j - 1) :: acc)
  in
  if !deleted = [] then c
  else Circuit.make ~n:(Circuit.n_qubits c) (rebuild n !deleted [])

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
