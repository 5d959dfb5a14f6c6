open Mathkit

(* A weight in canonical form: the representative [value], its id
   [wid] in the manager's value table and its grid class [cls] (see
   [grid_class]).
   Every representative has exactly one such record, shared by all the
   edges that carry it.  A record with [wid = -1] is raw: a matrix entry
   not snapped yet, which only gate construction hands to [make_node]. *)
type weight = { value : Cx.t; wid : int; cls : int }

type node = { id : int; var : int; edges : edge array }
and edge = { w : weight; node : node }

(* Every manager gives zero id 0 and one id 1, and files them under grid
   classes 0 and 1, so the two records are shared. *)
let zero_weight = { value = Cx.zero; wid = 0; cls = 0 }
let one_weight = { value = Cx.one; wid = 1; cls = 1 }
let raw z = { value = z; wid = -1; cls = -1 }

(* Integer hashing for the tables below: multiply to carry low-bit
   differences up, fold the high half back down. *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let combine h x = (h * 0x1F0A3BD5) + x

(* The unique table: an insert-only open-addressing set of nodes, probed
   linearly and grown at 3/4 load, so a node costs its slot and no
   bucket cell.  Two nodes are the same when they agree on the variable
   and, edge by edge, on the child and the weight's grid class:
   representatives closer than the 1e-10 grid share a node. *)
module Unique = struct
  type t = { mutable slots : node array; mutable count : int }

  (* What a free slot holds. *)
  let free = { id = -1; var = -1; edges = [||] }

  let same_edge e f = e.node == f.node && e.w.cls = f.w.cls

  let equal a b =
    a.var = b.var
    && same_edge a.edges.(0) b.edges.(0)
    && same_edge a.edges.(1) b.edges.(1)
    && same_edge a.edges.(2) b.edges.(2)
    && same_edge a.edges.(3) b.edges.(3)

  let hash n =
    let edge h e = combine (combine h e.node.id) e.w.cls in
    let es = n.edges in
    mix (edge (edge (edge (edge n.var es.(0)) es.(1)) es.(2)) es.(3))

  let create slots = { slots = Array.make slots free; count = 0 }
  let length t = t.count

  (* The slot holding a node equal to [n], or the free slot where [n]
     belongs, probing linearly from slot [i]. *)
  let rec probe slots n i =
    let s = slots.(i) in
    if s == free || equal s n then i
    else probe slots n ((i + 1) land (Array.length slots - 1))

  let slot t n = probe t.slots n (hash n land (Array.length t.slots - 1))

  (* The nodes are distinct, so rehashing only looks for free slots. *)
  let grow t =
    let old = t.slots in
    let slots = Array.make (2 * Array.length old) free in
    let mask = Array.length slots - 1 in
    let rec place n i =
      if slots.(i) == free then slots.(i) <- n else place n ((i + 1) land mask)
    in
    Array.iter (fun n -> if n != free then place n (hash n land mask)) old;
    t.slots <- slots

  (* Store [n] in the free slot [i] that [slot] returned for it. *)
  let insert t i n =
    t.slots.(i) <- n;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.slots then grow t
end

(* An open-addressing table keyed by three non-negative ints, for the
   operation caches and the weight memo: a probe allocates nothing and
   hashes and compares integers only.  It grows at 3/4 load.  Entries
   are never removed one by one; [reset] empties the whole table. *)
module Int3_table = struct
  type 'a t = {
    mutable keys : int array;  (* three per slot; a free slot starts -1 *)
    mutable values : 'a array;
    mutable count : int;
    absent : 'a;  (* what [find] returns for a missing key *)
  }

  let initial_slots = 1024

  let create absent =
    {
      keys = Array.make (3 * initial_slots) (-1);
      values = Array.make initial_slots absent;
      count = 0;
      absent;
    }

  let length t = t.count

  let reset t =
    t.keys <- Array.make (3 * initial_slots) (-1);
    t.values <- Array.make initial_slots t.absent;
    t.count <- 0

  (* The slot holding key (a, b, c), or the free slot where it belongs,
     probing linearly from slot [i]. *)
  let rec probe t a b c i =
    let k = 3 * i in
    let ka = t.keys.(k) in
    if ka < 0 || (ka = a && t.keys.(k + 1) = b && t.keys.(k + 2) = c) then i
    else probe t a b c ((i + 1) land (Array.length t.values - 1))

  let slot t a b c =
    probe t a b c
      (mix (combine (combine a b) c) land (Array.length t.values - 1))

  let find t a b c =
    let i = slot t a b c in
    if t.keys.(3 * i) < 0 then t.absent else t.values.(i)

  let set t i a b c v =
    t.keys.(3 * i) <- a;
    t.keys.((3 * i) + 1) <- b;
    t.keys.((3 * i) + 2) <- c;
    t.values.(i) <- v

  let grow t =
    let keys = t.keys and values = t.values in
    let slots = 2 * Array.length values in
    t.keys <- Array.make (3 * slots) (-1);
    t.values <- Array.make slots t.absent;
    Array.iteri
      (fun i v ->
        let a = keys.(3 * i) in
        if a >= 0 then begin
          let b = keys.((3 * i) + 1) and c = keys.((3 * i) + 2) in
          set t (slot t a b c) a b c v
        end)
      values

  let replace t a b c v =
    let i = slot t a b c in
    if t.keys.(3 * i) >= 0 then t.values.(i) <- v
    else begin
      set t i a b c v;
      t.count <- t.count + 1;
      if 4 * t.count > 3 * Array.length t.values then grow t
    end
end

(* A memoized [canonical (a op b)], valid while the weight table holds
   [stamp] representatives.  A stale entry is rewritten in place. *)
type memo_entry = { mutable result : weight; mutable stamp : int }

(* What the memo's [find] returns for a missing key; never written. *)
let no_entry = { result = zero_weight; stamp = -1 }

type manager = {
  n : int;
  terminal : node;
  zero_edge : edge;
  unique : Unique.t;
  values : (int * int, weight list) Hashtbl.t;
      (* the value table: representatives by bucket, oldest first *)
  classes : (float * float, int) Hashtbl.t;
      (* grid class of each [Cx.round_key] a representative has had *)
  mutable n_weights : int;  (* representatives so far, zero and one included *)
  memo : memo_entry Int3_table.t;  (* keyed by (operation, wid, wid) *)
  mul_cache : edge Int3_table.t;  (* keyed by (node id, node id, 0) *)
  add_cache : edge Int3_table.t;  (* keyed by (node id, node id, ratio class) *)
  gates : (Gate.t, edge) Hashtbl.t;
      (* every gate diagram built so far: a circuit applies few distinct
         gates many times, and each build is n [make_node] calls *)
  mutable next_id : int;
  mutable identity_from : edge array;
      (* identity_from.(v) = identity over variables v .. n-1 *)
  mutable budget : int option;
  mutable deadline : int64 option;
      (* monotonic-clock instant past which node allocation aborts with
         [Deadline_exceeded]; checked once per [deadline_stride]
         allocations so the clock read never shows up on the hot path *)
  (* Observability counters (see [stats]): plain int bumps on paths that
     already pay for a hashtable probe, so they stay on unconditionally. *)
  mutable peak_unique : int;
  mutable mul_hits : int;
  mutable mul_misses : int;
  mutable add_hits : int;
  mutable add_misses : int;
}

type stats = {
  unique_nodes : int;
  peak_unique_nodes : int;
  allocated : int;
  mul_cache_hits : int;
  mul_cache_misses : int;
  add_cache_hits : int;
  add_cache_misses : int;
}

exception Node_budget_exceeded
exception Deadline_exceeded

let now_ns () = Monotonic_clock.now ()

(* Allocation granularity of the deadline check: a diagram explosion
   allocates thousands of nodes per millisecond, so probing the clock
   every [deadline_stride] fresh nodes bounds the overrun to well under
   a millisecond while keeping the common (no-deadline or cache-hit)
   path free of clock reads. *)
let deadline_stride = 1024

let weight_eps = 1e-9
let bucket_scale = 1e9

let bucket x = int_of_float (Float.round (x *. bucket_scale))

(* The grid class of a new representative: one integer per distinct
   [Cx.round_key], the point of the 1e-10 grid the unique table compares
   weights on. *)
let grid_class m z =
  let key = Cx.round_key z in
  match Hashtbl.find_opt m.classes key with
  | Some c -> c
  | None ->
    let c = Hashtbl.length m.classes in
    Hashtbl.add m.classes key c;
    c

(* Map a freshly computed weight onto the canonical representative stored
   in the value table, so that near-equal floats coming from different
   computation paths become one shared [weight] with one id.  Checking
   the 3x3 neighborhood of the bucket covers values that land just
   across a bucket boundary.

   Each bucket holds a {e chain} of representatives, oldest first: a
   miss appends instead of overwriting, so a new weight that shares a
   bucket with an established representative but fails the
   [approx_equal] test never evicts it.  (Overwriting would let two
   interleaved weight streams thrash the bucket and silently defeat
   node dedup — every stream switch would re-canonicalize the other
   stream's nodes to a fresh representative.)  Chains stay short: a
   bucket is [weight_eps] wide while representatives must be more than
   [2 * weight_eps] apart to coexist.

   Snapping a representative's own value returns that representative:
   everything ahead of it in its bucket's chain was there, and failed to
   match it, when it was appended.  So a weight that already has an id
   never needs snapping again.  This is the only place ids are given. *)
let canonical m z =
  if Cx.is_zero ~eps:weight_eps z then zero_weight
  else if Cx.is_one ~eps:weight_eps z then one_weight
  else
    let br = bucket z.Complex.re and bi = bucket z.Complex.im in
    (* The matching tolerance shrinks with the weight's magnitude:
       snapping is only sound when the perturbation is small RELATIVE
       to the weight.  The leftmost-nonzero normalization in
       [make_node] routinely pairs a huge weight (s/c for a rotation
       with a tiny matrix entry c) with its tiny reciprocal; snapping
       that reciprocal to a neighbor 2e-9 away is a 1e-3 relative
       error that the huge partner amplifies right back to 1e-3 in
       the product — enough to make a circuit fail an equivalence
       check against its byte-identical self.  Scaling the tolerance
       by min(1, |z|) keeps the historic absolute behavior for
       weights of magnitude >= 1 and preserves relative precision
       below it. *)
    let magnitude =
      Float.max (abs_float z.Complex.re) (abs_float z.Complex.im)
    in
    let matching =
      Cx.approx_equal ~eps:(2.0 *. weight_eps *. Float.min 1.0 magnitude)
    in
    let rec scan = function
      | [] ->
        let rep = { value = z; wid = m.n_weights; cls = grid_class m z } in
        m.n_weights <- m.n_weights + 1;
        let chain =
          Option.value ~default:[] (Hashtbl.find_opt m.values (br, bi))
        in
        Hashtbl.replace m.values (br, bi) (chain @ [ rep ]);
        rep
      | (dr, di) :: rest -> (
        match Hashtbl.find_opt m.values (br + dr, bi + di) with
        | Some chain -> (
          match List.find_opt (fun rep -> matching rep.value z) chain with
          | Some rep -> rep
          | None -> scan rest)
        | None -> scan rest)
    in
    scan
      [ (0, 0); (1, 0); (-1, 0); (0, 1); (0, -1); (1, 1); (1, -1); (-1, 1);
        (-1, -1) ]

(* The operation caches and the memo grow with every distinct key; on
   the 96-qubit verifications that is the dominant memory consumer, so
   they are emptied once they pass a bound.  Dropping a table only costs
   recomputation, never correctness. *)
let cache_bound = 2_000_000

let trim_cache table =
  if Int3_table.length table > cache_bound then Int3_table.reset table

(* [canonical (op a.value b.value)] for canonical [a] and [b], memoized
   by ids.  Snapping depends only on the value and the value table, and
   the table only grows, so an entry written when the table held as many
   representatives as it does now is exactly what snapping again would
   return. *)
let memoized m op compute a b =
  let entry = Int3_table.find m.memo op a.wid b.wid in
  if entry.stamp = m.n_weights then entry.result
  else begin
    let result = canonical m (compute a.value b.value) in
    if entry != no_entry then begin
      entry.result <- result;
      entry.stamp <- m.n_weights
    end
    else begin
      trim_cache m.memo;
      Int3_table.replace m.memo op a.wid b.wid
        { result; stamp = m.n_weights }
    end;
    result
  end

let product m a b = memoized m 0 Cx.mul a b
let quotient m a b = memoized m 1 Cx.div a b
let sum m a b = memoized m 2 Cx.add a b

(* What the caches' [find] returns for a missing key. *)
let absent_edge =
  { w = zero_weight; node = { id = -1; var = -1; edges = [||] } }

let create ~n =
  if n <= 0 then invalid_arg "Qmdd.create: need at least one qubit";
  let terminal = { id = 0; var = n; edges = [||] } in
  let classes = Hashtbl.create 1024 in
  Hashtbl.add classes (Cx.round_key Cx.zero) zero_weight.cls;
  Hashtbl.add classes (Cx.round_key Cx.one) one_weight.cls;
  {
    n;
    terminal;
    zero_edge = { w = zero_weight; node = terminal };
    unique = Unique.create 4096;
    values = Hashtbl.create 1024;
    classes;
    n_weights = 2;
    memo = Int3_table.create no_entry;
    mul_cache = Int3_table.create absent_edge;
    add_cache = Int3_table.create absent_edge;
    gates = Hashtbl.create 64;
    next_id = 1;
    identity_from = [||];
    budget = None;
    deadline = None;
    peak_unique = 0;
    mul_hits = 0;
    mul_misses = 0;
    add_hits = 0;
    add_misses = 0;
  }


let stats m =
  {
    unique_nodes = Unique.length m.unique;
    peak_unique_nodes = m.peak_unique;
    allocated = m.next_id;
    mul_cache_hits = m.mul_hits;
    mul_cache_misses = m.mul_misses;
    add_cache_hits = m.add_hits;
    add_cache_misses = m.add_misses;
  }

let zero_edge m = m.zero_edge
let terminal_one m = { w = one_weight; node = m.terminal }

let rec first_nonzero edges k =
  if k < 4 && edges.(k).w.wid = 0 then first_nonzero edges (k + 1) else k

(* Hash-consing constructor.  Normalizes so the leftmost non-zero edge
   weight is exactly one; the factored-out weight becomes the weight of
   the returned edge.  Only raw weights are snapped here; every other
   edge already carries a representative.  [edges] must be a fresh
   array of four: it is normalized in place and becomes the node's. *)
let make_node m var edges =
  for k = 0 to 3 do
    let e = edges.(k) in
    if e.w.wid = 0 then edges.(k) <- zero_edge m
    else if e.w.wid < 0 then begin
      let w = canonical m e.w.value in
      edges.(k) <- (if w.wid = 0 then zero_edge m else { e with w })
    end
  done;
  match first_nonzero edges 0 with
  | 4 -> zero_edge m
  | k ->
    let norm = edges.(k).w in
    (* Zero edges are already the terminal's, from the loop above. *)
    for idx = 0 to 3 do
      let e = edges.(idx) in
      if e.w.wid <> 0 then begin
        let w = if idx = k then one_weight else quotient m e.w norm in
        if w != e.w then edges.(idx) <- { e with w }
      end
    done;
    (* A fresh node takes the next id, so the candidate is built with it
       and kept only when the table has no equal node. *)
    let candidate = { id = m.next_id; var; edges } in
    let i = Unique.slot m.unique candidate in
    let found = m.unique.slots.(i) in
    let node =
      if found != Unique.free then found
      else begin
        (match m.budget with
        | Some budget when m.next_id > budget -> raise Node_budget_exceeded
        | Some _ | None -> ());
        (match m.deadline with
        | Some d when m.next_id land (deadline_stride - 1) = 0 ->
          if Int64.compare (now_ns ()) d >= 0 then raise Deadline_exceeded
        | Some _ | None -> ());
        m.next_id <- m.next_id + 1;
        Unique.insert m.unique i candidate;
        let live = Unique.length m.unique in
        if live > m.peak_unique then m.peak_unique <- live;
        candidate
      end
    in
    { w = norm; node }

let scale_edge m s e =
  if s.wid = 0 || e.w.wid = 0 then zero_edge m
  else
    let w = product m s e.w in
    if w == e.w then e else { e with w }

let build_identity_table m =
  let table = Array.make (m.n + 1) (terminal_one m) in
  for v = m.n - 1 downto 0 do
    let below = table.(v + 1) in
    table.(v) <- make_node m v [| below; zero_edge m; zero_edge m; below |]
  done;
  m.identity_from <- table

let identity_from m v =
  if Array.length m.identity_from = 0 then build_identity_table m;
  m.identity_from.(v)

let identity m = identity_from m 0
let zero m = zero_edge m

let rec add m a b =
  trim_cache m.add_cache;
  if a.w.wid = 0 then b
  else if b.w.wid = 0 then a
  else if a.node == m.terminal then
    let w = sum m a.w b.w in
    if w.wid = 0 then zero_edge m else { w; node = m.terminal }
  else begin
    (* Factor the first weight out so the cache works on (node, node,
       weight-ratio); addition is linear, so scaling back is sound. *)
    let ratio = quotient m b.w a.w in
    let cached = Int3_table.find m.add_cache a.node.id b.node.id ratio.cls in
    let unit_result =
      if cached != absent_edge then begin
        m.add_hits <- m.add_hits + 1;
        cached
      end
      else begin
        m.add_misses <- m.add_misses + 1;
        let children =
          Array.init 4 (fun k ->
              add m a.node.edges.(k) (scale_edge m ratio b.node.edges.(k)))
        in
        let r = make_node m a.node.var children in
        Int3_table.replace m.add_cache a.node.id b.node.id ratio.cls r;
        r
      end
    in
    scale_edge m a.w unit_result
  end

(* Whether [node] is the identity over its variable and those below.
   Only the table's nodes are recognized, and only once something has
   built the table: testing must not allocate it, or node counts would
   depend on whether the identity was ever asked for. *)
let is_identity_node m node =
  Array.length m.identity_from > 0 && node == m.identity_from.(node.var).node

let rec multiply m a b =
  trim_cache m.mul_cache;
  if a.w.wid = 0 || b.w.wid = 0 then zero_edge m
  else if a.node == m.terminal then scale_edge m a.w b
  else if b.node == m.terminal then scale_edge m b.w a
  (* A gate's diagram is a scaled identity below its lowest qubit, so
     without this every application would recurse through all the
     levels underneath, probing the cache at each. *)
  else if is_identity_node m a.node then scale_edge m a.w b
  else if is_identity_node m b.node then scale_edge m b.w a
  else begin
    let cached = Int3_table.find m.mul_cache a.node.id b.node.id 0 in
    let unit_result =
      if cached != absent_edge then begin
        m.mul_hits <- m.mul_hits + 1;
        cached
      end
      else begin
        m.mul_misses <- m.mul_misses + 1;
        (* Quadrant (i,j) of the product is sum_k A(i,k) * B(k,j).  The
           array literal builds the quadrants right to left, and [add]
           takes its second operand first: that order decides which
           weights are snapped first, and so which become
           representatives. *)
        let quadrant i j =
          add m
            (multiply m a.node.edges.((2 * i) + 0) b.node.edges.((2 * 0) + j))
            (multiply m a.node.edges.((2 * i) + 1) b.node.edges.((2 * 1) + j))
        in
        let children =
          [| quadrant 0 0; quadrant 0 1; quadrant 1 0; quadrant 1 1 |]
        in
        let r = make_node m a.node.var children in
        Int3_table.replace m.mul_cache a.node.id b.node.id 0 r;
        r
      end
    in
    scale_edge m (product m a.w b.w) unit_result
  end

(* Construction of a single-target controlled gate.  [diag v alpha beta]
   is the diagonal matrix over variables v..n-1 whose entry is [alpha]
   on rows where every control below v is 1, and [beta] elsewhere.
   [alpha] is a raw matrix entry, snapped by the [make_node] that first
   takes it; [beta] is zero or one. *)
let controlled_gate m ~controls ~target ~u =
  let in_controls = Array.make m.n false in
  List.iter (fun c -> in_controls.(c) <- true) controls;
  let rec diag v alpha beta =
    if Cx.is_zero ~eps:weight_eps alpha && beta.wid = 0 then zero_edge m
    else if v = m.n then { w = raw alpha; node = m.terminal }
    else if in_controls.(v) then
      make_node m v
        [|
          scale_edge m beta (identity_from m (v + 1));
          zero_edge m;
          zero_edge m;
          diag (v + 1) alpha beta;
        |]
    else
      let below = diag (v + 1) alpha beta in
      make_node m v [| below; zero_edge m; zero_edge m; below |]
  in
  let rec build v =
    if v = target then
      let quadrant i j =
        let alpha = Matrix.get u i j in
        let beta = if i = j then one_weight else zero_weight in
        diag (v + 1) alpha beta
      in
      make_node m v [| quadrant 0 0; quadrant 0 1; quadrant 1 0; quadrant 1 1 |]
    else if in_controls.(v) then
      make_node m v
        [|
          identity_from m (v + 1);
          zero_edge m;
          zero_edge m;
          build (v + 1);
        |]
    else
      let below = build (v + 1) in
      make_node m v [| below; zero_edge m; zero_edge m; below |]
  in
  build 0

let one_qubit_u g = Gate.base_matrix g

let rec gate m g =
  match Hashtbl.find_opt m.gates g with
  | Some e -> e
  | None ->
    let e = build_gate m g in
    Hashtbl.add m.gates g e;
    e

and build_gate m g =
  if Gate.max_qubit g >= m.n then
    invalid_arg
      (Printf.sprintf "Qmdd.gate: %s outside %d-qubit register"
         (Gate.to_string g) m.n);
  (* A NaN or infinite angle would poison the value table (tolerance
     comparisons against NaN all fail, so canonicalization breaks
     down): reject it at the door with a structured error instead. *)
  (match g with
  | Gate.Rx (a, _) | Gate.Ry (a, _) | Gate.Rz (a, _) | Gate.Phase (a, _) ->
    if not (Float.is_finite a) then
      invalid_arg
        (Printf.sprintf "Qmdd.gate: non-finite angle in %s" (Gate.to_string g))
  | _ -> ());
  match g with
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q
  | Gate.T q | Gate.Tdg q
  | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    controlled_gate m ~controls:[] ~target:q ~u:(one_qubit_u g)
  | Gate.Cnot { control; target } ->
    controlled_gate m ~controls:[ control ] ~target
      ~u:(Gate.base_matrix (Gate.X 0))
  | Gate.Cz (a, b) ->
    controlled_gate m ~controls:[ a ] ~target:b
      ~u:(Gate.base_matrix (Gate.Z 0))
  | Gate.Toffoli { c1; c2; target } ->
    controlled_gate m ~controls:[ c1; c2 ] ~target
      ~u:(Gate.base_matrix (Gate.X 0))
  | Gate.Mct { controls; target } ->
    controlled_gate m ~controls ~target ~u:(Gate.base_matrix (Gate.X 0))
  | Gate.Swap (a, b) ->
    let cnot c t = Gate.Cnot { control = c; target = t } in
    let e1 = gate m (cnot a b) in
    let e2 = gate m (cnot b a) in
    multiply m e1 (multiply m e2 e1)

let apply m g e = multiply m (gate m g) e

let with_budget m node_budget f =
  let saved = m.budget in
  m.budget <- node_budget;
  Fun.protect ~finally:(fun () -> m.budget <- saved) f

let with_deadline m deadline_ns f =
  let saved = m.deadline in
  m.deadline <- deadline_ns;
  Fun.protect ~finally:(fun () -> m.deadline <- saved) f

let of_circuit ?node_budget m c =
  if Circuit.n_qubits c <> m.n then
    invalid_arg "Qmdd.of_circuit: width mismatch";
  with_budget m node_budget (fun () ->
      Circuit.fold (fun acc g -> apply m g acc) (identity m) c)

let equal a b = a.node == b.node && a.w.wid = b.w.wid

(* [canonical] snaps each weight to a bucket representative up to
   [2 * weight_eps] away, and a product of many gates accumulates those
   snaps in the root weight — so the exact-phase identity test must
   tolerate more drift than a single [weight_eps], or two byte-identical
   irrational-angle circuits fail their own equivalence check.  1e-6
   matches the phase-insensitive variant below. *)
let is_identity m e =
  e.node == (identity m).node && Cx.is_one ~eps:1e-6 e.w.value

let is_identity_up_to_phase m e =
  e.node == (identity m).node && abs_float (Cx.norm e.w.value -. 1.0) <= 1e-6

(* Relabel both circuits so qubits appear in first-use order (reference
   first, then the candidate), clustering interacting qubits in the
   variable order. *)
let first_use_relabeling c1 c2 =
  let n = Circuit.n_qubits c1 in
  let order = Array.make n (-1) in
  let next = ref 0 in
  let touch q =
    if order.(q) = -1 then begin
      order.(q) <- !next;
      incr next
    end
  in
  Circuit.iter (fun g -> List.iter touch (Gate.support g)) c1;
  Circuit.iter (fun g -> List.iter touch (Gate.support g)) c2;
  for q = 0 to n - 1 do
    touch q
  done;
  fun q -> order.(q)

let manager_stats = stats

(* Work the aligner may spend per input gate: one unit per diagonal
   extension and one per matched step of a snake.  The Table 8 checks
   need about 5, the serve workload's at most about 150. *)
let align_work_per_gate = 256

(* A longest common subsequence of two int arrays, as the list of its
   snakes (i, j, len) in order: xs.(i + t) = ys.(j + t) for t < len.
   This is the O(NP) algorithm of Wu, Manber, Myers and Miller ("An
   O(NP) sequence comparison algorithm", IPL 1990), where P counts the
   deletions from the shorter array beyond the length difference: the
   furthest point fp.(k) reached on each diagonal k = y - x grows round
   by round, and round p visits diagonals -p .. delta + p.  A diagonal
   inherits the path of the neighbour it was reached from, a list of
   snakes, latest first, that grows only by a non-empty snake.  [probe]
   runs once per round.  Gives up, returning no snake, once the work
   passes [align_work_per_gate] per input gate. *)
let align ~probe (xs : int array) (ys : int array) =
  let swapped = Array.length xs > Array.length ys in
  let a, b = if swapped then (ys, xs) else (xs, ys) in
  let m = Array.length a and n = Array.length b in
  let delta = n - m and offset = m + 1 in
  let fp = Array.make (m + n + 3) (-1) in
  let path = Array.make (m + n + 3) [] in
  let work = ref 0 and limit = align_work_per_gate * (m + n) in
  let extend k =
    let d = offset + k in
    let from = if fp.(d - 1) + 1 > fp.(d + 1) then d - 1 else d + 1 in
    let y0 = Int.max (fp.(d - 1) + 1) fp.(d + 1) in
    let y = ref y0 in
    while !y - k < m && !y < n && Int.equal a.(!y - k) b.(!y) do
      incr y
    done;
    let len = !y - y0 in
    work := !work + 1 + len;
    fp.(d) <- !y;
    path.(d) <-
      (if len > 0 then (y0 - k, y0, len) :: path.(from) else path.(from))
  in
  let p = ref (-1) in
  while fp.(offset + delta) < n && !work <= limit do
    probe ();
    incr p;
    for k = - !p to delta - 1 do
      extend k
    done;
    for k = delta + !p downto delta + 1 do
      extend k
    done;
    extend delta
  done;
  if fp.(offset + delta) < n then []
  else
    List.rev_map
      (fun (x, y, len) -> if swapped then (y, x, len) else (x, y, len))
      path.(offset + delta)

(* [align] over two gate arrays interned to ints, equal gates sharing
   one. *)
let gate_snakes ~probe g1 g2 =
  let ids = Hashtbl.create 256 in
  let id g =
    try Hashtbl.find ids g
    with Not_found ->
      let k = Hashtbl.length ids in
      Hashtbl.add ids g k;
      k
  in
  let x1 = Array.map id g1 in
  align ~probe x1 (Array.map id g2)

(* The widest support, in qubits, of a block of one side's unmatched
   gates in [equivalent]'s miter.  Every native gate fits; a third
   qubit was 10-25% slower on the full Table 8 proofs. *)
let fuse_width = 2

let common_subsequence g1 g2 =
  List.concat_map
    (fun (i, j, len) -> List.init len (fun t -> (i + t, j + t)))
    (gate_snakes ~probe:ignore g1 g2)

let equivalent ?(up_to_phase = true) ?node_budget ?deadline_ns ?stats c1 c2 =
  if Circuit.n_qubits c1 <> Circuit.n_qubits c2 then
    invalid_arg "Qmdd.equivalent: width mismatch";
  let c1, c2 =
    let relabel = first_use_relabeling c1 c2 in
    (Circuit.rename relabel c1, Circuit.rename relabel c2)
  in
  let m = create ~n:(Circuit.n_qubits c1) in
  (* The observer fires even when the budget blows up mid-check, so a
     trace records how large the diagram got before giving up. *)
  let observe () =
    match stats with
    | None -> ()
    | Some f -> f (manager_stats m)
  in
  let past_deadline () =
    match deadline_ns with
    | None -> false
    | Some d -> Int64.compare (now_ns ()) d >= 0
  in
  Fun.protect ~finally:observe (fun () ->
  with_budget m node_budget (fun () ->
  with_deadline m deadline_ns (fun () ->
      (* Alternating scheme: gates of c1 left-multiplied, adjoints of c2
         right-multiplied, so the intermediate diagram stays close to
         the identity.  Final product is U1 * U2^dagger.  A gate the two
         circuits share (a pair of their longest common subsequence) is
         applied on both sides at once, which returns the product to
         where it was; the gates between two such pairs are interleaved
         in proportion to their counts, each side's fused into blocks.
         Every gate is applied once, in order, on its own side, so the
         alignment and the blocks only change diagram sizes, never the
         product. *)
      let g1 = Array.of_list (Circuit.gates c1) in
      let g2 = Array.of_list (Circuit.gates c2) in
      let acc = ref (identity m) in
      (* Per-gate deadline probe: the per-allocation check inside
         [make_node] only fires while the diagram grows, so a long
         all-cache-hit stretch still re-reads the clock here. *)
      let probe () = if past_deadline () then raise Deadline_exceeded in
      let left g =
        probe ();
        acc := multiply m (gate m g) !acc
      in
      let right g =
        probe ();
        acc := multiply m !acc (gate m (Gate.adjoint g))
      in
      (* One side's unmatched gates, fused: consecutive gates share a
         block while their support stays within [fuse_width] qubits (a
         wider gate is a block of its own).  [join block d] extends a
         block by the next gate's diagram [d], [settle] multiplies a
         finished block into the product.  The two sides' factors
         commute, so a block may wait while the other side's gates go
         in. *)
      let fused ~diagram ~join ~settle =
        let block = ref None and support = ref [] in
        let flush () =
          Option.iter settle !block;
          block := None;
          support := []
        in
        let push g =
          probe ();
          let d = diagram g in
          let union = List.sort_uniq Int.compare (Gate.support g @ !support) in
          match !block with
          | Some b when List.length union <= fuse_width ->
            block := Some (join b d);
            support := union
          | Some _ | None ->
            flush ();
            block := Some d;
            support := Gate.support g
        in
        (push, flush)
      in
      (* Left: L := g * L, then acc := L * acc.  Right: R := R * g^dagger,
         then acc := acc * R. *)
      let push_left, flush_left =
        fused ~diagram:(gate m)
          ~join:(fun b d -> multiply m d b)
          ~settle:(fun b -> acc := multiply m b !acc)
      in
      let push_right, flush_right =
        fused
          ~diagram:(fun g -> gate m (Gate.adjoint g))
          ~join:(multiply m)
          ~settle:(fun b -> acc := multiply m !acc b)
      in
      let interleave i0 i1 j0 j1 =
        let a = i1 - i0 and b = j1 - j0 in
        let i = ref 0 and j = ref 0 in
        while !i < a || !j < b do
          if !i < a && (!j >= b || !i * b <= !j * a) then begin
            push_left g1.(i0 + !i);
            incr i
          end
          else begin
            push_right g2.(j0 + !j);
            incr j
          end
        done;
        flush_left ();
        flush_right ()
      in
      let i, j =
        List.fold_left
          (fun (i, j) (si, sj, len) ->
            interleave i si j sj;
            for t = 0 to len - 1 do
              left g1.(si + t);
              right g2.(sj + t)
            done;
            (si + len, sj + len))
          (0, 0) (gate_snakes ~probe g1 g2)
      in
      interleave i (Array.length g1) j (Array.length g2);
      if up_to_phase then is_identity_up_to_phase m !acc
      else is_identity m !acc)))

let adjoint m e =
  (* Transpose the quadrant structure (U01 <-> U10) and conjugate the
     weights.  Unit-weight results are cached per node. *)
  let cache = Hashtbl.create 256 in
  (* [conj w * e.w], snapped: the conjugate of a representative is a raw
     weight, so this product is not memoized. *)
  let scale_conj w e =
    if w.wid = 0 || e.w.wid = 0 then zero_edge m
    else { e with w = canonical m (Cx.mul (Cx.conj w.value) e.w.value) }
  in
  let rec walk node =
    if node == m.terminal then terminal_one m
    else
      match Hashtbl.find_opt cache node.id with
      | Some r -> r
      | None ->
        let child k =
          let c = node.edges.(k) in
          if c.w.wid = 0 then zero_edge m else scale_conj c.w (walk c.node)
        in
        let r =
          make_node m node.var [| child 0; child 2; child 1; child 3 |]
        in
        Hashtbl.replace cache node.id r;
        r
  in
  scale_conj e.w (walk e.node)

(* The diagonal sum, multiplied by [per_level] once per variable:
   [per_level = 0.5] gives tr / 2^n without ever forming 2^n, which
   overflows an int from 63 qubits on. *)
let diagonal_sum m e ~per_level =
  let cache = Hashtbl.create 256 in
  let rec walk node =
    if node == m.terminal then Cx.one
    else
      match Hashtbl.find_opt cache node.id with
      | Some t -> t
      | None ->
        let part k =
          let c = node.edges.(k) in
          if c.w.wid = 0 then Cx.zero else Cx.mul c.w.value (walk c.node)
        in
        let t = Cx.scale per_level (Cx.add (part 0) (part 3)) in
        Hashtbl.replace cache node.id t;
        t
  in
  Cx.mul e.w.value (walk e.node)

let trace m e = diagonal_sum m e ~per_level:1.0

let process_fidelity c1 c2 =
  if Circuit.n_qubits c1 <> Circuit.n_qubits c2 then
    invalid_arg "Qmdd.process_fidelity: width mismatch";
  let n = Circuit.n_qubits c1 in
  let m = create ~n in
  let u1 = Circuit.fold (fun acc g -> apply m g acc) (identity m) c1 in
  let u2 = Circuit.fold (fun acc g -> apply m g acc) (identity m) c2 in
  Cx.norm (diagonal_sum m (multiply m (adjoint m u1) u2) ~per_level:0.5)

let check_bits m bits name =
  if Array.length bits <> m.n then
    invalid_arg (Printf.sprintf "Qmdd.%s: expected %d bits" name m.n)

let basis_projector m bits =
  check_bits m bits "basis_projector";
  let rec build v =
    if v = m.n then terminal_one m
    else
      let below = build (v + 1) in
      let zero = zero_edge m in
      if bits.(v) then make_node m v [| zero; zero; zero; below |]
      else make_node m v [| below; zero; zero; zero |]
  in
  build 0

let run_basis ?node_budget ?deadline_ns m c ~from =
  if Circuit.n_qubits c <> m.n then
    invalid_arg "Qmdd.run_basis: width mismatch";
  with_budget m node_budget (fun () ->
  with_deadline m deadline_ns (fun () ->
      Circuit.fold (fun acc g -> apply m g acc) (basis_projector m from) c))

let classical_outcome m state ~from =
  check_bits m from "classical_outcome";
  (* Walk the diagram following the column bits of [from]; the state is
     a basis vector iff at every level exactly one row branch is
     nonzero, with unit weight overall. *)
  let row = Array.make m.n false in
  let rec walk e v magnitude =
    if e.w.wid = 0 then None
    else if v = m.n then begin
      let mag = magnitude *. Cx.norm e.w.value in
      if abs_float (mag -. 1.0) <= 1e-6 then Some (Array.copy row) else None
    end
    else begin
      let cbit = if from.(v) then 1 else 0 in
      let zero_branch = e.node.edges.((2 * 0) + cbit) in
      let one_branch = e.node.edges.((2 * 1) + cbit) in
      let z_alive = zero_branch.w.wid <> 0 in
      let o_alive = one_branch.w.wid <> 0 in
      match (z_alive, o_alive) with
      | true, false ->
        row.(v) <- false;
        walk zero_branch (v + 1) (magnitude *. Cx.norm e.w.value)
      | false, true ->
        row.(v) <- true;
        walk one_branch (v + 1) (magnitude *. Cx.norm e.w.value)
      | true, true | false, false -> None
    end
  in
  walk state 0 1.0

let node_count e =
  let seen = Hashtbl.create 64 in
  let rec visit node =
    if not (Hashtbl.mem seen node.id) then begin
      Hashtbl.add seen node.id ();
      Array.iter (fun child -> visit child.node) node.edges
    end
  in
  visit e.node;
  Hashtbl.length seen

(* One matrix entry, reading the row and column bit of each variable
   from [row_bit] and [col_bit]. *)
let entry_at m e ~row_bit ~col_bit =
  let rec walk e v =
    if e.w.wid = 0 then Cx.zero
    else if v = m.n then e.w.value
    else
      let child = e.node.edges.((2 * row_bit v) + col_bit v) in
      Cx.mul e.w.value (walk child (v + 1))
  in
  walk e 0

let entry m e ~row ~col =
  let bit index v = (index lsr (m.n - 1 - v)) land 1 in
  entry_at m e ~row_bit:(bit row) ~col_bit:(bit col)

let amplitude m state ~from bits =
  check_bits m from "amplitude";
  check_bits m bits "amplitude";
  entry_at m state ~row_bit:(fun v -> Bool.to_int bits.(v))
    ~col_bit:(fun v -> Bool.to_int from.(v))

let to_matrix m e =
  let dim = 1 lsl m.n in
  let out = Matrix.create dim dim in
  for row = 0 to dim - 1 do
    for col = 0 to dim - 1 do
      Matrix.set out row col (entry m e ~row ~col)
    done
  done;
  out

let iter_nodes e f =
  let seen = Hashtbl.create 64 in
  let rec visit node =
    if not (Hashtbl.mem seen node.id) then begin
      Hashtbl.add seen node.id ();
      f node;
      Array.iter (fun child -> visit child.node) node.edges
    end
  in
  visit e.node

let to_dot m e =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph qmdd {\n  rankdir=TB;\n";
  Buffer.add_string buf
    (Printf.sprintf "  root [shape=none, label=\"%s\"];\n  root -> n%d;\n"
       (Cx.to_string e.w.value) e.node.id);
  iter_nodes e (fun node ->
      if node == m.terminal then
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=box, label=\"1\"];\n" node.id)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=circle, label=\"x%d\"];\n" node.id
             node.var);
        Array.iteri
          (fun k child ->
            if child.w.wid = 0 then
              Buffer.add_string buf
                (Printf.sprintf
                   "  z%d_%d [shape=point]; n%d -> z%d_%d [label=\"0 (U%d%d)\", style=dashed];\n"
                   node.id k node.id node.id k (k / 2) (k mod 2))
            else
              Buffer.add_string buf
                (Printf.sprintf "  n%d -> n%d [label=\"%s (U%d%d)\"];\n"
                   node.id child.node.id (Cx.to_string child.w.value) (k / 2)
                   (k mod 2)))
          node.edges
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_ascii m e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "root --%s--> n%d\n" (Cx.to_string e.w.value) e.node.id);
  iter_nodes e (fun node ->
      if node == m.terminal then
        Buffer.add_string buf (Printf.sprintf "n%d: terminal(1)\n" node.id)
      else begin
        Buffer.add_string buf (Printf.sprintf "n%d: x%d " node.id node.var);
        Array.iteri
          (fun k child ->
            let label =
              if child.w.wid = 0 then "0"
              else
                Printf.sprintf "%s*n%d" (Cx.to_string child.w.value)
                  child.node.id
            in
            Buffer.add_string buf
              (Printf.sprintf "%sU%d%d=%s" (if k = 0 then "[" else " ") (k / 2)
                 (k mod 2) label))
          node.edges;
        Buffer.add_string buf "]\n"
      end);
  Buffer.contents buf
