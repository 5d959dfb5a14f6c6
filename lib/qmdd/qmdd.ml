open Mathkit

type node = { id : int; var : int; edges : edge array }
and edge = { w : Cx.t; node : node }

type unique_key = int * ((float * float) * int) array

type manager = {
  n : int;
  terminal : node;
  unique : (unique_key, node) Hashtbl.t;
  values : (int * int, Cx.t list) Hashtbl.t;
  mul_cache : (int * int, edge) Hashtbl.t;
  add_cache : (int * int * (float * float), edge) Hashtbl.t;
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

(* Map a freshly computed weight onto the canonical representative stored
   in the value table, so that near-equal floats coming from different
   computation paths become physically identical and hash identically.
   Checking the 3x3 neighborhood of the bucket covers values that land
   just across a bucket boundary.

   Each bucket holds a {e chain} of representatives, oldest first: a
   miss appends instead of overwriting, so a new weight that shares a
   bucket with an established representative but fails the
   [approx_equal] test never evicts it.  (Overwriting would let two
   interleaved weight streams thrash the bucket and silently defeat
   node dedup — every stream switch would re-canonicalize the other
   stream's nodes to a fresh representative.)  Chains stay short: a
   bucket is [weight_eps] wide while representatives must be more than
   [2 * weight_eps] apart to coexist. *)
let canonical m z =
  if Cx.is_zero ~eps:weight_eps z then Cx.zero
  else if Cx.is_one ~eps:weight_eps z then Cx.one
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
        let chain =
          Option.value ~default:[] (Hashtbl.find_opt m.values (br, bi))
        in
        Hashtbl.replace m.values (br, bi) (chain @ [ z ]);
        z
      | (dr, di) :: rest -> (
        match Hashtbl.find_opt m.values (br + dr, bi + di) with
        | Some chain -> (
          match List.find_opt (fun rep -> matching rep z) chain with
          | Some rep -> rep
          | None -> scan rest)
        | None -> scan rest)
    in
    scan
      [ (0, 0); (1, 0); (-1, 0); (0, 1); (0, -1); (1, 1); (1, -1); (-1, 1);
        (-1, -1) ]

let create ~n =
  if n <= 0 then invalid_arg "Qmdd.create: need at least one qubit";
  let terminal = { id = 0; var = n; edges = [||] } in
  {
    n;
    terminal;
    unique = Hashtbl.create 4096;
    values = Hashtbl.create 1024;
    mul_cache = Hashtbl.create 4096;
    add_cache = Hashtbl.create 4096;
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

let n_vars m = m.n
let allocated_nodes m = m.next_id

let stats m =
  {
    unique_nodes = Hashtbl.length m.unique;
    peak_unique_nodes = m.peak_unique;
    allocated = m.next_id;
    mul_cache_hits = m.mul_hits;
    mul_cache_misses = m.mul_misses;
    add_cache_hits = m.add_hits;
    add_cache_misses = m.add_misses;
  }

let zero_edge m = { w = Cx.zero; node = m.terminal }
let terminal_one m = { w = Cx.one; node = m.terminal }

let edge_key e = (Cx.round_key e.w, e.node.id)

(* Hash-consing constructor.  Normalizes so the leftmost non-zero edge
   weight is exactly one; the factored-out weight becomes the weight of
   the returned edge. *)
let make_node m var edges =
  let edges =
    Array.map
      (fun e ->
        let w = canonical m e.w in
        if w == Cx.zero || Cx.is_zero ~eps:weight_eps w then zero_edge m
        else { e with w })
      edges
  in
  let rec first_nonzero k =
    if k >= 4 then None
    else if Cx.is_zero ~eps:weight_eps edges.(k).w then first_nonzero (k + 1)
    else Some k
  in
  match first_nonzero 0 with
  | None -> zero_edge m
  | Some k ->
    let norm = edges.(k).w in
    let normalized =
      Array.mapi
        (fun idx e ->
          if Cx.is_zero ~eps:weight_eps e.w then zero_edge m
          else if idx = k then { e with w = Cx.one }
          else { e with w = canonical m (Cx.div e.w norm) })
        edges
    in
    let key = (var, Array.map edge_key normalized) in
    let node =
      match Hashtbl.find_opt m.unique key with
      | Some node -> node
      | None ->
        (match m.budget with
        | Some budget when m.next_id > budget -> raise Node_budget_exceeded
        | Some _ | None -> ());
        (match m.deadline with
        | Some d when m.next_id land (deadline_stride - 1) = 0 ->
          if Int64.compare (now_ns ()) d >= 0 then raise Deadline_exceeded
        | Some _ | None -> ());
        let node = { id = m.next_id; var; edges = normalized } in
        m.next_id <- m.next_id + 1;
        Hashtbl.add m.unique key node;
        let live = Hashtbl.length m.unique in
        if live > m.peak_unique then m.peak_unique <- live;
        node
    in
    { w = norm; node }

let scale_edge m s e =
  if Cx.is_zero ~eps:weight_eps s || Cx.is_zero ~eps:weight_eps e.w then
    zero_edge m
  else { e with w = canonical m (Cx.mul s e.w) }

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

(* The operation caches grow with every distinct (operand, operand)
   pair; on the 96-qubit verifications that is the dominant memory
   consumer, so they are emptied once they pass a bound.  Dropping a
   cache only costs recomputation, never correctness. *)
let cache_bound = 2_000_000

let trim_cache table =
  if Hashtbl.length table > cache_bound then Hashtbl.reset table

let rec add m a b =
  trim_cache m.add_cache;
  if Cx.is_zero ~eps:weight_eps a.w then b
  else if Cx.is_zero ~eps:weight_eps b.w then a
  else if a.node == m.terminal then
    let w = canonical m (Cx.add a.w b.w) in
    if Cx.is_zero ~eps:weight_eps w then zero_edge m else { w; node = m.terminal }
  else begin
    (* Factor the first weight out so the cache works on (node, node,
       weight-ratio); addition is linear, so scaling back is sound. *)
    let ratio = canonical m (Cx.div b.w a.w) in
    let key = (a.node.id, b.node.id, Cx.round_key ratio) in
    let unit_result =
      match Hashtbl.find_opt m.add_cache key with
      | Some r ->
        m.add_hits <- m.add_hits + 1;
        r
      | None ->
        m.add_misses <- m.add_misses + 1;
        let children =
          Array.init 4 (fun k ->
              add m a.node.edges.(k) (scale_edge m ratio b.node.edges.(k)))
        in
        let r = make_node m a.node.var children in
        Hashtbl.replace m.add_cache key r;
        r
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
  if Cx.is_zero ~eps:weight_eps a.w || Cx.is_zero ~eps:weight_eps b.w then
    zero_edge m
  else if a.node == m.terminal then scale_edge m a.w b
  else if b.node == m.terminal then scale_edge m b.w a
  (* A gate's diagram is a scaled identity below its lowest qubit, so
     without this every application would recurse through all the
     levels underneath, probing the cache at each. *)
  else if is_identity_node m a.node then scale_edge m a.w b
  else if is_identity_node m b.node then scale_edge m b.w a
  else begin
    let key = (a.node.id, b.node.id) in
    let unit_result =
      match Hashtbl.find_opt m.mul_cache key with
      | Some r ->
        m.mul_hits <- m.mul_hits + 1;
        r
      | None ->
        m.mul_misses <- m.mul_misses + 1;
        (* Quadrant (i,j) of the product is sum_k A(i,k) * B(k,j). *)
        let quadrant i j =
          add m
            (multiply m a.node.edges.((2 * i) + 0) b.node.edges.((2 * 0) + j))
            (multiply m a.node.edges.((2 * i) + 1) b.node.edges.((2 * 1) + j))
        in
        let children =
          [| quadrant 0 0; quadrant 0 1; quadrant 1 0; quadrant 1 1 |]
        in
        let r = make_node m a.node.var children in
        Hashtbl.replace m.mul_cache key r;
        r
    in
    scale_edge m (canonical m (Cx.mul a.w b.w)) unit_result
  end

(* Construction of a single-target controlled gate.  [diag v alpha beta]
   is the diagonal matrix over variables v..n-1 whose entry is [alpha]
   on rows where every control below v is 1, and [beta] elsewhere. *)
let controlled_gate m ~controls ~target ~u =
  let in_controls = Array.make m.n false in
  List.iter (fun c -> in_controls.(c) <- true) controls;
  let rec diag v alpha beta =
    if Cx.is_zero ~eps:weight_eps alpha && Cx.is_zero ~eps:weight_eps beta then
      zero_edge m
    else if v = m.n then { w = alpha; node = m.terminal }
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
        let beta = if i = j then Cx.one else Cx.zero in
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

let equal a b = a.node == b.node && a.w = b.w

let equal_up_to_phase a b =
  a.node == b.node
  && abs_float (Cx.norm a.w -. Cx.norm b.w) <= 1e-6

(* [canonical] snaps each weight to a bucket representative up to
   [2 * weight_eps] away, and a product of many gates accumulates those
   snaps in the root weight — so the exact-phase identity test must
   tolerate more drift than a single [weight_eps], or two byte-identical
   irrational-angle circuits fail their own equivalence check.  1e-6
   matches the phase-insensitive variant below. *)
let is_identity m e =
  e.node == (identity m).node && Cx.is_one ~eps:1e-6 e.w

let is_identity_up_to_phase m e =
  e.node == (identity m).node && abs_float (Cx.norm e.w -. 1.0) <= 1e-6

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

let equivalent ?(up_to_phase = true) ?node_budget ?deadline_ns
    ?(reorder = true) ?stats c1 c2 =
  if Circuit.n_qubits c1 <> Circuit.n_qubits c2 then
    invalid_arg "Qmdd.equivalent: width mismatch";
  let c1, c2 =
    if reorder then begin
      let relabel = first_use_relabeling c1 c2 in
      (Circuit.rename relabel c1, Circuit.rename relabel c2)
    end
    else (c1, c2)
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
         right-multiplied, interleaved in proportion so the intermediate
         diagram stays close to the identity.  Final product is
         U1 * U2^dagger. *)
      let g1 = Array.of_list (Circuit.gates c1) in
      let g2 = Array.of_list (Circuit.gates c2) in
      let n1 = Array.length g1 and n2 = Array.length g2 in
      let acc = ref (identity m) in
      let i = ref 0 and j = ref 0 in
      while !i < n1 || !j < n2 do
        (* Per-gate deadline probe: the per-allocation check inside
           [make_node] only fires while the diagram grows, so a long
           all-cache-hit stretch still re-reads the clock here. *)
        if past_deadline () then raise Deadline_exceeded;
        let advance_c1 =
          !i < n1
          && (!j >= n2 || !i * n2 <= !j * n1)
        in
        if advance_c1 then begin
          acc := multiply m (gate m g1.(!i)) !acc;
          incr i
        end
        else begin
          acc := multiply m !acc (gate m (Gate.adjoint g2.(!j)));
          incr j
        end
      done;
      if up_to_phase then is_identity_up_to_phase m !acc
      else is_identity m !acc)))

let adjoint m e =
  (* Transpose the quadrant structure (U01 <-> U10) and conjugate the
     weights.  Unit-weight results are cached per node. *)
  let cache = Hashtbl.create 256 in
  let rec walk node =
    if node == m.terminal then terminal_one m
    else
      match Hashtbl.find_opt cache node.id with
      | Some r -> r
      | None ->
        let child k =
          let c = node.edges.(k) in
          if Cx.is_zero ~eps:weight_eps c.w then zero_edge m
          else scale_edge m (Cx.conj c.w) (walk c.node)
        in
        let r =
          make_node m node.var [| child 0; child 2; child 1; child 3 |]
        in
        Hashtbl.replace cache node.id r;
        r
  in
  scale_edge m (Cx.conj e.w) (walk e.node)

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
          if Cx.is_zero ~eps:weight_eps c.w then Cx.zero
          else Cx.mul c.w (walk c.node)
        in
        let t = Cx.scale per_level (Cx.add (part 0) (part 3)) in
        Hashtbl.replace cache node.id t;
        t
  in
  Cx.mul e.w (walk e.node)

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
    if Cx.is_zero ~eps:weight_eps e.w then None
    else if v = m.n then begin
      let mag = magnitude *. Cx.norm e.w in
      if abs_float (mag -. 1.0) <= 1e-6 then Some (Array.copy row) else None
    end
    else begin
      let cbit = if from.(v) then 1 else 0 in
      let zero_branch = e.node.edges.((2 * 0) + cbit) in
      let one_branch = e.node.edges.((2 * 1) + cbit) in
      let z_alive = not (Cx.is_zero ~eps:weight_eps zero_branch.w) in
      let o_alive = not (Cx.is_zero ~eps:weight_eps one_branch.w) in
      match (z_alive, o_alive) with
      | true, false ->
        row.(v) <- false;
        walk zero_branch (v + 1) (magnitude *. Cx.norm e.w)
      | false, true ->
        row.(v) <- true;
        walk one_branch (v + 1) (magnitude *. Cx.norm e.w)
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
    if Cx.is_zero ~eps:weight_eps e.w then Cx.zero
    else if v = m.n then e.w
    else
      let child = e.node.edges.((2 * row_bit v) + col_bit v) in
      Cx.mul e.w (walk child (v + 1))
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
       (Cx.to_string e.w) e.node.id);
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
            if Cx.is_zero ~eps:weight_eps child.w then
              Buffer.add_string buf
                (Printf.sprintf
                   "  z%d_%d [shape=point]; n%d -> z%d_%d [label=\"0 (U%d%d)\", style=dashed];\n"
                   node.id k node.id node.id k (k / 2) (k mod 2))
            else
              Buffer.add_string buf
                (Printf.sprintf "  n%d -> n%d [label=\"%s (U%d%d)\"];\n"
                   node.id child.node.id (Cx.to_string child.w) (k / 2)
                   (k mod 2)))
          node.edges
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_ascii m e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "root --%s--> n%d\n" (Cx.to_string e.w) e.node.id);
  iter_nodes e (fun node ->
      if node == m.terminal then
        Buffer.add_string buf (Printf.sprintf "n%d: terminal(1)\n" node.id)
      else begin
        Buffer.add_string buf (Printf.sprintf "n%d: x%d " node.id node.var);
        Array.iteri
          (fun k child ->
            let label =
              if Cx.is_zero ~eps:weight_eps child.w then "0"
              else Printf.sprintf "%s*n%d" (Cx.to_string child.w) child.node.id
            in
            Buffer.add_string buf
              (Printf.sprintf "%sU%d%d=%s" (if k = 0 then "[" else " ") (k / 2)
                 (k mod 2) label))
          node.edges;
        Buffer.add_string buf "]\n"
      end);
  Buffer.contents buf
