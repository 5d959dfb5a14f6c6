type t = { n : int; gates : Gate.t list }

let validate ~n gates =
  if n <= 0 then invalid_arg "Circuit.make: need at least one qubit";
  List.iter
    (fun g ->
      if Gate.max_qubit g >= n then
        invalid_arg
          (Printf.sprintf "Circuit.make: gate %s outside %d-qubit register"
             (Gate.to_string g) n))
    gates

let make ~n gates =
  validate ~n gates;
  { n; gates }

(* Empty list => the 1-qubit identity circuit; going through [make]
   keeps every construction path behind the same validation. *)
let of_gates gates =
  let n = 1 + List.fold_left (fun acc g -> max acc (Gate.max_qubit g)) 0 gates in
  make ~n gates

let empty n = make ~n []
let n_qubits c = c.n
let gates c = c.gates
let gate_count c = List.length c.gates
let is_empty c = c.gates = []

let append c g =
  validate ~n:c.n [ g ];
  { c with gates = c.gates @ [ g ] }

let concat a b =
  if a.n <> b.n then invalid_arg "Circuit.concat: width mismatch";
  { a with gates = a.gates @ b.gates }

let inverse c = { c with gates = List.rev_map Gate.adjoint c.gates }

let widen c n =
  if n < c.n then invalid_arg "Circuit.widen: cannot shrink";
  { c with n }

let rename f c =
  let gates = List.map (Gate.rename f) c.gates in
  let needed =
    1 + List.fold_left (fun acc g -> max acc (Gate.max_qubit g)) 0 gates
  in
  { n = max c.n needed; gates }

let compact a b =
  let index = Array.make (max a.n b.n) (-1) and k = ref 0 in
  let number q =
    if index.(q) < 0 then begin
      index.(q) <- !k;
      incr k
    end
  in
  List.iter (fun g -> List.iter number (Gate.support g)) a.gates;
  List.iter (fun g -> List.iter number (Gate.support g)) b.gates;
  let relabel c =
    { n = max 1 !k; gates = List.map (Gate.rename (fun q -> index.(q))) c.gates }
  in
  (relabel a, relabel b)

let equal a b = a.n = b.n && List.equal Gate.equal a.gates b.gates

type stats = { t_count : int; cnot_count : int; gate_volume : int }

(* Integer accumulators and one record at the end: every Eqn. 2
   evaluation walks a circuit here, so nothing is allocated per gate. *)
let stats c =
  let rec count t cnot volume = function
    | [] -> { t_count = t; cnot_count = cnot; gate_volume = volume }
    | g :: rest ->
      count
        (if Gate.is_t_like g then t + 1 else t)
        (if Gate.is_cnot g then cnot + 1 else cnot)
        (volume + 1) rest
  in
  count 0 0 0 c.gates

let t_count c = (stats c).t_count
let cnot_count c = (stats c).cnot_count

type full_stats = {
  fs_t_count : int;
  fs_cnot_count : int;
  fs_gate_volume : int;
  fs_depth : int;
  fs_t_depth : int;
}

(* The one walk that computes depth: per-qubit frontier levels, each
   gate landing one step past the latest of its qubits (one T step past
   for a T-like gate, none for the others), with the counts of [stats]
   taken on the way. *)
let full_stats c =
  let level = Array.make c.n 0 in
  let t_level = Array.make c.n 0 in
  let depth = ref 0 in
  let t_depth = ref 0 in
  let t_count = ref 0 in
  let cnot_count = ref 0 in
  let volume = ref 0 in
  List.iter
    (fun g ->
      incr volume;
      let t_like = Gate.is_t_like g in
      if t_like then incr t_count;
      if Gate.is_cnot g then incr cnot_count;
      let support = Gate.support g in
      let at = List.fold_left (fun acc q -> max acc level.(q)) 0 support in
      let t_at = List.fold_left (fun acc q -> max acc t_level.(q)) 0 support in
      let after = at + 1 in
      let t_after = t_at + if t_like then 1 else 0 in
      List.iter
        (fun q ->
          level.(q) <- after;
          t_level.(q) <- t_after)
        support;
      if after > !depth then depth := after;
      if t_after > !t_depth then t_depth := t_after)
    c.gates;
  {
    fs_t_count = !t_count;
    fs_cnot_count = !cnot_count;
    fs_gate_volume = !volume;
    fs_depth = !depth;
    fs_t_depth = !t_depth;
  }

let depth c = (full_stats c).fs_depth
let t_depth c = (full_stats c).fs_t_depth
let uses_only_native c = List.for_all Gate.is_transmon_native c.gates
let fold f init c = List.fold_left f init c.gates
let iter f c = List.iter f c.gates
let map_gates f c = { c with gates = List.concat_map f c.gates }

(* Amortized-O(1) accumulation: gates are validated as they arrive and
   kept in reverse, so building an n-gate circuit is O(n) total where a
   fold over [append] would be O(n^2). *)
module Builder = struct
  type t = { b_n : int; mutable rev : Gate.t list; mutable len : int }

  let create ~n =
    if n <= 0 then invalid_arg "Circuit.Builder.create: need at least one qubit";
    { b_n = n; rev = []; len = 0 }

  let add b g =
    if Gate.max_qubit g >= b.b_n then
      invalid_arg
        (Printf.sprintf "Circuit.make: gate %s outside %d-qubit register"
           (Gate.to_string g) b.b_n);
    b.rev <- g :: b.rev;
    b.len <- b.len + 1

  let add_list b gates = List.iter (add b) gates
  let length b = b.len

  (* Gates were validated on [add], so the record is built directly
     instead of re-walking the list through [make]. *)
  let to_circuit b = { n = b.b_n; gates = List.rev b.rev }
end

let to_string c =
  let b = Buffer.create 64 in
  Printf.bprintf b "circuit on %d qubits (%d gates):\n" c.n (gate_count c);
  List.iter (fun g -> Printf.bprintf b "  %s\n" (Gate.to_string g)) c.gates;
  Buffer.contents b
