let same_pair a b c d = (a = c && b = d) || (a = d && b = c)

let cancels g h =
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
    same_pair a1 b1 a2 b2
  | Gate.Toffoli a, Gate.Toffoli b ->
    a.target = b.target && same_pair a.c1 a.c2 b.c1 b.c2
  | Gate.Mct a, Gate.Mct b ->
    a.target = b.target
    && List.sort Int.compare a.controls = List.sort Int.compare b.controls
  (* Z, S, Sdg, T, Tdg and Phase all read as diag(1, e^(i theta)), so
     any two whose angles sum to 0 mod 2 pi cancel exactly.  Of the named
     gates only adjoint pairs do, so their angles are never read; they
     are read only for a pair with a [Phase], where both gates are in
     the family. *)
  | Gate.Z a, Gate.Z b
  | Gate.S a, Gate.Sdg b
  | Gate.Sdg a, Gate.S b
  | Gate.T a, Gate.Tdg b
  | Gate.Tdg a, Gate.T b ->
    a = b
  | ( (Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _),
      (Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _) ) ->
    false
  | ( (Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Phase _),
      (Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Phase _) )
    -> (
    match (Gate.phase_angle g, Gate.phase_angle h) with
    | Some (a, qa), Some (b, qb) -> qa = qb && Gate.phase_gate (a +. b) qa = None
    | (Some _ | None), (Some _ | None) -> false)
  | _, _ -> false

(* A mask of a gate's qubits: bit [q mod 63] for each qubit [q].
   Disjoint masks mean disjoint supports.  Past 63 qubits two qubits
   can share a bit; that only sends a pair to the full test.  Read off
   the constructor, so it allocates nothing. *)
let bit q = 1 lsl (q mod 63)

let rec list_mask m = function [] -> m | q :: rest -> list_mask (m lor bit q) rest

let qubit_mask = function
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q
  | Gate.T q | Gate.Tdg q
  | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    bit q
  | Gate.Cnot { control = a; target = b } | Gate.Cz (a, b) | Gate.Swap (a, b) ->
    bit a lor bit b
  | Gate.Toffoli { c1; c2; target } -> bit c1 lor bit c2 lor bit target
  | Gate.Mct { controls; target } -> list_mask (bit target) controls

let cancel_pass ?(lookback = 50) c =
  (* The processed gates stay where they are in [gates]; [older] links
     the kept ones, latest first: [older.(n)] is the latest, [older.(j)]
     the kept gate before [j], and -1 ends the chain.  The incoming gate
     deletes the first earlier gate it cancels with, provided it
     commutes with everything in between, and a deletion unlinks one
     index.  A kept gate whose mask misses the incoming gate's shares no
     qubit with it, so it can neither cancel nor block: the scan steps
     over it, and it still counts toward [lookback]. *)
  let gates = Array.of_list (Circuit.gates c) in
  let n = Array.length gates in
  let mask = Array.make n 0 and older = Array.make (n + 1) (-1) in
  (* Walk the chain from [j], whose newer neighbour is [newer]; true
     when [g] deleted a gate. *)
  let rec delete g m j newer depth =
    if j < 0 || depth = lookback then false
    else if mask.(j) land m = 0 then delete g m older.(j) j (depth + 1)
    else if cancels gates.(j) g then begin
      older.(newer) <- older.(j);
      true
    end
    else if Gate.commutes g gates.(j) then delete g m older.(j) j (depth + 1)
    else false
  in
  let deleted = ref false in
  for i = 0 to n - 1 do
    let g = gates.(i) in
    let m = qubit_mask g in
    if delete g m older.(n) n 0 then deleted := true
    else begin
      mask.(i) <- m;
      older.(i) <- older.(n);
      older.(n) <- i
    end
  done;
  if not !deleted then c
  else begin
    let rec kept j acc = if j < 0 then acc else kept older.(j) (gates.(j) :: acc) in
    Circuit.make ~n:(Circuit.n_qubits c) (kept older.(n) [])
  end

(* Identity-window memo.  A window's key names its gates with the
   window's qubits relabelled by first touch, so [H 7; X 9; H 7] and
   [H 0; X 2; H 0] share one key: the key is position independent, and
   each distinct window pays for one dense [Sim.unitary] ever, across
   sweeps and across circuits.  A key maps to the longest identity
   window among the keyed window's prefixes (0 when there is none),
   so a start whose answer is known costs one lookup.  The table is a
   pure cache: on overflow it is dropped wholesale and answers are
   simply recomputed.

   Ownership: one process-wide table under [window_memo_lock], so an
   answer any domain or thread computed is never computed again.  The
   lock is held for one lookup or one insert, never across a
   simulation. *)
module Memo = Hashtbl.Make (String)

let window_memo : int Memo.t = Memo.create 4096
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
   operands of [gates.(j)] are [ops.(first.(j)) .. ops.(first.(j+1) - 1)],
   and [next.(k)] is the first gate after [j] that touches qubit
   [ops.(k)], or [n] when none does.  [support] holds the qubits of the
   window being grown, in the order they were first touched; the window
   of [w] gates spans the first [width.(w)] of them, and its memo key is
   the first [key_len.(w)] bytes of [key]. *)
type scan = {
  gates : Gate.t array;
  first : int array;
  ops : int array;
  next : int array;
  support : int array;
  width : int array;
  key : Bytes.t;
  key_len : int array;
}

(* A gate writes at most a kind byte, one label per operand and 8 angle
   bytes, so [key] holds any window of the widest gate. *)
let scan_of gates ~n_qubits ~max_window =
  let n = Array.length gates in
  let first = Array.make (n + 1) 0 and widest = ref 0 in
  Array.iteri
    (fun j g ->
      let k = Gate.operand_count g in
      first.(j + 1) <- first.(j) + k;
      widest := max !widest k)
    gates;
  let ops = Array.make first.(n) 0 in
  Array.iteri (fun j g -> write_operands ops first.(j) g) gates;
  (* Back to front: [seen.(q)] is the first gate after [j] on [q]. *)
  let next = Array.make first.(n) n and seen = Array.make n_qubits n in
  for j = n - 1 downto 0 do
    for k = first.(j) to first.(j + 1) - 1 do
      next.(k) <- seen.(ops.(k))
    done;
    for k = first.(j) to first.(j + 1) - 1 do
      seen.(ops.(k)) <- j
    done
  done;
  let m = min max_window n in
  { gates; first; ops; next; support = Array.make 3 0; width = Array.make (m + 1) 0;
    key = Bytes.create (m * (!widest + 9)); key_len = Array.make (m + 1) 0 }

(* The first-touch label of [q]: its index among the first [k] support
   qubits, or [k] when it is not among them; callers search from
   [t = 0]. *)
let rec label support k q t =
  if t = k || support.(t) = q then t else label support k q (t + 1)

let touches s j q =
  let k = ref s.first.(j) and stop = s.first.(j + 1) in
  while !k < stop && s.ops.(!k) <> q do
    incr k
  done;
  !k < stop

let put_byte b pos byte = Bytes.set b pos (Char.unsafe_chr byte)

(* The longest window from gate [i], of at most [max_window] gates,
   that stays within 3 qubits, recording the width and the key length
   of every shorter one.  A support only grows, so no longer window
   can fit.  A qubit that would be the fourth ends the growth before
   it is stored: one gate can add several new qubits (a Toffoli adds 3
   to a 2-qubit prefix), and none of them may overrun the buffer.

   Each accepted gate appends to the key its {!Gate.kind}, the labels
   of its operands in constructor order (each below 3), and the IEEE
   bits of its angle or, for an [Mct], the byte 255, which no label
   takes.  The kind fixes every gate's length except an [Mct]'s, so the
   key decodes one way only: two windows share a key exactly when they
   are equal up to a one-to-one relabelling of their qubits.  Labels
   are fixed at first touch, so each shorter window's key is a prefix
   of this one's. *)
let grow s i ~max_window =
  let n = Array.length s.gates and support = s.support and key = s.key in
  let count = ref 0 and len = ref 0 and fits = ref true and pos = ref 0 in
  while !fits && !len < max_window && i + !len < n do
    let j = i + !len in
    let g = s.gates.(j) in
    put_byte key !pos (Gate.kind g);
    let k = ref s.first.(j) and stop = s.first.(j + 1) and p = ref (!pos + 1) in
    while !fits && !k < stop do
      let q = s.ops.(!k) in
      (* [label support !count q 0], unrolled over the three slots. *)
      let c = !count in
      let t =
        if c > 0 && support.(0) = q then 0
        else if c > 1 && support.(1) = q then 1
        else if c > 2 && support.(2) = q then 2
        else c
      in
      if t = 3 then fits := false
      else begin
        if t = c then begin
          support.(t) <- q;
          count := c + 1
        end;
        put_byte key !p t;
        incr p;
        incr k
      end
    done;
    if !fits then begin
      (match g with
      | Gate.Rx (theta, _) | Gate.Ry (theta, _) | Gate.Rz (theta, _)
      | Gate.Phase (theta, _) ->
        Bytes.set_int64_le key !p (Int64.bits_of_float theta);
        p := !p + 8
      | Gate.Mct _ ->
        put_byte key !p 255;
        incr p
      | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
      | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
      | Gate.Toffoli _ ->
        ());
      pos := !p;
      incr len;
      s.width.(!len) <- !count;
      s.key_len.(!len) <- !pos
    end
  done;
  !len

(* Whether one of the operands [k .. stop - 1] is touched by no gate
   before [limit]. *)
let rec untouched_until s k stop limit =
  k < stop && (s.next.(k) >= limit || untouched_until s (k + 1) stop limit)

(* Whether every window from [i] is ruled out by the lone-touch rule
   below without growing it: gate [i] cannot be near the identity, and
   one of its qubits is touched by none of the other gates a window
   from [i] can hold (at most [max_window - 1] of them), so in every
   such window gate [i] alone touches that qubit.  (The exact inverse
   pair needs the next gate on all of [i]'s qubits.) *)
let lone_from_start s i ~max_window =
  (not (near_identity_possible s.gates.(i)))
  && untouched_until s s.first.(i) s.first.(i + 1)
       (i + min max_window (Array.length s.gates - i))

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

(* Whether the window of [w] gates from [i] is the identity: an exact
   inverse pair (g then its adjoint, no simulation needed), or a window
   the lone-touch rule leaves to the dense check, which runs on the
   window relabelled as its key labels it.  No test depends on which
   qubits the window uses, only on how its gates share them, so the
   answer is a function of the key. *)
let is_identity s i w =
  (w = 2 && Gate.equal s.gates.(i + 1) (Gate.adjoint s.gates.(i)))
  || (not (has_lone_touch s i w))
     &&
     let k = s.width.(w) in
     let relabel q = label s.support k q 0 in
     let window = List.init w (fun t -> Gate.rename relabel s.gates.(i + t)) in
     Mathkit.Matrix.is_identity ~eps:1e-9
       (Sim.unitary (Circuit.make ~n:k window))

(* The longest identity window from [i] of at most [w] gates, 0 when
   there is none, memoized (see [Memo]).  A miss asks the window
   itself, then its prefixes through their own keys, so a prefix some
   other window already answered is not simulated again.  The lookup
   is inline so that a hit allocates only its key.  The serve daemon's
   GC alarm may raise inside [find]; the lock is released on that path
   too. *)
let rec longest s i w =
  if w < 2 then 0
  else begin
    let key = Bytes.sub_string s.key 0 s.key_len.(w) in
    Mutex.lock window_memo_lock;
    match Memo.find window_memo key with
    | found ->
      Mutex.unlock window_memo_lock;
      found
    | exception Not_found ->
      Mutex.unlock window_memo_lock;
      let found = if is_identity s i w then w else longest s i (w - 1) in
      Mutex.protect window_memo_lock (fun () ->
          if Memo.length window_memo >= window_memo_limit then
            Memo.reset window_memo;
          Memo.replace window_memo key found);
      found
    | exception e ->
      Mutex.unlock window_memo_lock;
      raise e
  end

let remove_identity_windows ?(max_window = 6) c =
  let gates = Array.of_list (Circuit.gates c) in
  let n = Array.length gates in
  let s =
    scan_of gates ~n_qubits:(Circuit.n_qubits c) ~max_window:(max max_window 0)
  in
  (* Deleted windows as (start, length), latest first. *)
  let deleted = ref [] in
  let i = ref 0 in
  while !i < n do
    let w =
      if lone_from_start s !i ~max_window then 0
      else longest s !i (grow s !i ~max_window)
    in
    match w with
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
  (* Both deleting passes return their input when they delete nothing. *)
  let shrinking f c =
    let c' = f c in
    if c' == c then None else Some (c', [])
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

(* Where a sweep left off: its passes from [last] on ran on the circuit
   it returned and changed nothing, the cost guard reverting [reverted]
   of them.  [last] is just past the sweep's last kept pass. *)
type left_off = { last : int; reverted : int }

(* Run the passes over [c], whose cost is [k], after a sweep that left
   off at [from].  A pass is kept only when it does not raise the cost;
   the running cost is carried along, so each rewritten circuit is
   evaluated once.

   While this sweep has kept nothing, it is still on the circuit [from]
   describes.  So it ends on reaching [from.last]: the passes from there
   on are deterministic in the circuit, the device, the rules and the
   cost, and would change nothing again.  It bumps [rewrite/reverted]
   once for each revert it skips, so the counter totals are those of
   the full sweep. *)
let sweep ~cost ~trace passes ~from (c, k) =
  let rec go j (c0, k0) here = function
    | _ when here.last = 0 && j >= from.last ->
      for _ = 1 to from.reverted do
        Trace.bump trace "rewrite/reverted" 1.0
      done;
      (c0, k0, { here with reverted = here.reverted + from.reverted })
    | [] -> (c0, k0, here)
    | pass :: rest -> (
      match pass c0 with
      | None -> go (j + 1) (c0, k0) here rest
      | Some (c1, fired) ->
        let k1 = Cost.evaluate cost c1 in
        if k1 <= k0 +. 1e-9 then begin
          List.iter
            (fun (name, n) ->
              Trace.bump trace ("rewrite/" ^ name) (float_of_int n))
            fired;
          go (j + 1) (c1, k1) { last = j + 1; reverted = 0 } rest
        end
        else begin
          Trace.bump trace "rewrite/reverted" 1.0;
          go (j + 1) (c0, k0) { here with reverted = here.reverted + 1 } rest
        end)
  in
  go 0 (c, k) { last = 0; reverted = 0 } passes

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
  let rec loop i best best_cost from =
    if capped i then stop ~cap:true i best
    else if Trace.past deadline_ns then stop ~deadline:true i best
    else begin
      let sp =
        Trace.start_with trace (Printf.sprintf "%s/iteration-%d" stage i) ~cost
          best
      in
      let candidate, candidate_cost, left_off =
        sweep ~cost ~trace passes ~from (best, best_cost)
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
        if improved then loop (i + 1) candidate candidate_cost left_off
        else stop i best
    end
  in
  (* The first sweep runs every pass. *)
  loop 1 c (Cost.evaluate cost c) { last = List.length passes; reverted = 0 }

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
