(* ---- the rule registry ----------------------------------------------- *)

type rule = {
  name : string;
  doc : string;
  pattern_doc : string;
  guard_doc : string;
  replacement_doc : string;
  head : int;
  rewrite : device:Device.t option -> Gate.t list -> Gate.t list option;
}

let direction_ok ~device ~control ~target =
  match device with
  | None -> true
  | Some d -> Device.allows_cnot d ~control ~target

let same_pair ~c ~t u v = (u = c && v = t) || (u = t && v = c)

(* Every replacement below is exactly equal to its pattern's unitary —
   global phase included — and strictly shorter, so template application
   terminates and the optimizer's exactness promise holds.  Identities
   that only hold modulo a phase (H Y H = -Y, Z X = i Y, ...) are
   deliberately absent.  A repeated wire in [pattern_doc] is a [when]
   equality on the matched operands. *)
let rules =
  [
    {
      name = "cnot-reversal";
      doc =
        "Four H around a CNOT are the reversed CNOT (the paper's Fig. 6 \
         basis-change pattern).";
      pattern_doc = "H a; H b; CNOT c->t; H a'; H b'";
      guard_doc = "{a,b} = {a',b'} = {c,t}; CNOT t->c legal on device";
      replacement_doc = "CNOT t->c";
      head = Gate.kind (Gate.H 0);
      rewrite =
        (fun ~device -> function
          | Gate.H a :: Gate.H b :: Gate.Cnot { control = c; target = t }
            :: Gate.H a' :: Gate.H b' :: rest
            when same_pair ~c ~t a b && same_pair ~c ~t a' b'
                 && direction_ok ~device ~control:t ~target:c ->
            Some (Gate.Cnot { control = t; target = c } :: rest)
          | _ -> None);
    };
    {
      name = "h-x-h-to-z";
      doc = "H-conjugation: H X H = Z, exactly.";
      pattern_doc = "H a; X a; H a";
      guard_doc = "-";
      replacement_doc = "Z a";
      head = Gate.kind (Gate.H 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.H a :: Gate.X b :: Gate.H c :: rest when a = b && b = c ->
            Some (Gate.Z a :: rest)
          | _ -> None);
    };
    {
      name = "h-z-h-to-x";
      doc = "H-conjugation: H Z H = X, exactly.";
      pattern_doc = "H a; Z a; H a";
      guard_doc = "-";
      replacement_doc = "X a";
      head = Gate.kind (Gate.H 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.H a :: Gate.Z b :: Gate.H c :: rest when a = b && b = c ->
            Some (Gate.X a :: rest)
          | _ -> None);
    };
    {
      name = "h-cz-h-to-cnot";
      doc =
        "H on one operand of a CZ turns it into a CNOT targeting that \
         operand.";
      pattern_doc = "H t; CZ c, t; H t";
      guard_doc = "CNOT c->t legal on device";
      replacement_doc = "CNOT c->t";
      head = Gate.kind (Gate.H 0);
      (* CZ is symmetric, so [t] may be either operand; the stored order
         CZ(c, t) is tried first. *)
      rewrite =
        (fun ~device -> function
          | Gate.H t :: Gate.Cz (c, u) :: Gate.H v :: rest
            when t = u && u = v && direction_ok ~device ~control:c ~target:t ->
            Some (Gate.Cnot { control = c; target = t } :: rest)
          | Gate.H t :: Gate.Cz (u, c) :: Gate.H v :: rest
            when t = u && u = v && direction_ok ~device ~control:c ~target:t ->
            Some (Gate.Cnot { control = c; target = t } :: rest)
          | _ -> None);
    };
    {
      name = "x-rz-x-flip";
      doc = "X-conjugation negates a Z rotation: X Rz(t) X = Rz(-t), exactly.";
      pattern_doc = "X a; Rz(t) a; X a";
      guard_doc = "-";
      replacement_doc = "Rz(-t) a";
      head = Gate.kind (Gate.X 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.X a :: Gate.Rz (t, b) :: Gate.X c :: rest
            when a = b && b = c ->
            Some (Gate.Rz (-.t, a) :: rest)
          | _ -> None);
    };
    {
      name = "x-ry-x-flip";
      doc = "X-conjugation negates a Y rotation: X Ry(t) X = Ry(-t), exactly.";
      pattern_doc = "X a; Ry(t) a; X a";
      guard_doc = "-";
      replacement_doc = "Ry(-t) a";
      head = Gate.kind (Gate.X 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.X a :: Gate.Ry (t, b) :: Gate.X c :: rest
            when a = b && b = c ->
            Some (Gate.Ry (-.t, a) :: rest)
          | _ -> None);
    };
    {
      name = "z-rx-z-flip";
      doc = "Z-conjugation negates an X rotation: Z Rx(t) Z = Rx(-t), exactly.";
      pattern_doc = "Z a; Rx(t) a; Z a";
      guard_doc = "-";
      replacement_doc = "Rx(-t) a";
      head = Gate.kind (Gate.Z 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.Z a :: Gate.Rx (t, b) :: Gate.Z c :: rest
            when a = b && b = c ->
            Some (Gate.Rx (-.t, a) :: rest)
          | _ -> None);
    };
    {
      name = "z-ry-z-flip";
      doc = "Z-conjugation negates a Y rotation: Z Ry(t) Z = Ry(-t), exactly.";
      pattern_doc = "Z a; Ry(t) a; Z a";
      guard_doc = "-";
      replacement_doc = "Ry(-t) a";
      head = Gate.kind (Gate.Z 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.Z a :: Gate.Ry (t, b) :: Gate.Z c :: rest
            when a = b && b = c ->
            Some (Gate.Ry (-.t, a) :: rest)
          | _ -> None);
    };
    {
      name = "h-rx-h-to-rz";
      doc = "H-conjugation swaps rotation axes: H Rx(t) H = Rz(t), exactly.";
      pattern_doc = "H a; Rx(t) a; H a";
      guard_doc = "-";
      replacement_doc = "Rz(t) a";
      head = Gate.kind (Gate.H 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.H a :: Gate.Rx (t, b) :: Gate.H c :: rest
            when a = b && b = c ->
            Some (Gate.Rz (t, a) :: rest)
          | _ -> None);
    };
    {
      name = "h-rz-h-to-rx";
      doc = "H-conjugation swaps rotation axes: H Rz(t) H = Rx(t), exactly.";
      pattern_doc = "H a; Rz(t) a; H a";
      guard_doc = "-";
      replacement_doc = "Rx(t) a";
      head = Gate.kind (Gate.H 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.H a :: Gate.Rz (t, b) :: Gate.H c :: rest
            when a = b && b = c ->
            Some (Gate.Rx (t, a) :: rest)
          | _ -> None);
    };
    {
      name = "sdg-x-s-to-y";
      doc = "S-conjugation rotates Pauli axes: the run Sdg; X; S is Y, exactly.";
      pattern_doc = "Sdg a; X a; S a";
      guard_doc = "-";
      replacement_doc = "Y a";
      head = Gate.kind (Gate.Sdg 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.Sdg a :: Gate.X b :: Gate.S c :: rest when a = b && b = c ->
            Some (Gate.Y a :: rest)
          | _ -> None);
    };
    {
      name = "s-y-sdg-to-x";
      doc = "S-conjugation rotates Pauli axes: the run S; Y; Sdg is X, exactly.";
      pattern_doc = "S a; Y a; Sdg a";
      guard_doc = "-";
      replacement_doc = "X a";
      head = Gate.kind (Gate.S 0);
      rewrite =
        (fun ~device:_ -> function
          | Gate.S a :: Gate.Y b :: Gate.Sdg c :: rest when a = b && b = c ->
            Some (Gate.X a :: rest)
          | _ -> None);
    };
    {
      name = "cnot-triple-to-swap";
      doc = "Three alternating CNOTs are a SWAP.";
      pattern_doc = "CNOT a->b; CNOT b->a; CNOT a->b";
      guard_doc = "unmapped circuits only (SWAP is not transmon-native)";
      replacement_doc = "SWAP a, b";
      head = Gate.kind (Gate.Cnot { control = 0; target = 1 });
      rewrite =
        (fun ~device -> function
          | Gate.Cnot { control = a; target = b }
            :: Gate.Cnot { control = b'; target = a' }
            :: Gate.Cnot { control = a''; target = b'' } :: rest
            when device = None && a = a' && a = a'' && b = b' && b = b'' ->
            Some (Gate.Swap (a, b) :: rest)
          | _ -> None);
    };
  ]

let find_rule name = List.find_opt (fun r -> r.name = name) rules

let engine_pass_names = [ "rotation-merge"; "phase-merge"; "clifford-normalize" ]
let all_names = List.map (fun r -> r.name) rules @ engine_pass_names

(* ---- rule selection -------------------------------------------------- *)

module StringSet = Set.Make (String)

type selection = StringSet.t

let default_selection = StringSet.of_list all_names

let empty_selection = StringSet.empty
let enabled sel name = StringSet.mem name sel

let parse_selection s =
  let tokens =
    List.filter
      (fun t -> t <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let known n = List.mem n all_names in
  let step acc token =
    match acc with
    | Error _ -> acc
    | Ok set -> (
      match token with
      | "all" | "default" -> Ok default_selection
      | "none" -> Ok StringSet.empty
      | t when String.length t > 1 && t.[0] = '-' ->
        let n = String.sub t 1 (String.length t - 1) in
        if known n then Ok (StringSet.remove n set)
        else Error (Printf.sprintf "unknown rewrite rule %S" n)
      | t ->
        if known t then Ok (StringSet.add t set)
        else Error (Printf.sprintf "unknown rewrite rule %S" t))
  in
  (* A leading removal means "the default set minus ..."; anything else
     builds the set from scratch, so canonical renderings round-trip. *)
  let start =
    match tokens with
    | t :: _ when String.length t > 1 && t.[0] = '-' -> default_selection
    | _ -> StringSet.empty
  in
  if tokens = [] then Ok default_selection
  else List.fold_left step (Ok start) tokens

let selection_to_string sel =
  if StringSet.is_empty sel then "none"
  else String.concat "," (StringSet.elements sel)

(* ---- template application -------------------------------------------- *)

let apply_templates ?device ?(selection = default_selection) c =
  let enabled_rules = List.filter (fun r -> enabled selection r.name) rules in
  if enabled_rules = [] then (c, [])
  else begin
    (* The enabled rules by their head, in registry order: a position
       tries only the rules its gate can start, so the first to fire is
       the registry's first. *)
    let by_head = Array.make Gate.kind_count [] in
    List.iter
      (fun r -> by_head.(r.head) <- r :: by_head.(r.head))
      (List.rev enabled_rules);
    let counts = Hashtbl.create 8 in
    let bump name =
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
    in
    let rec first todo = function
      | [] -> None
      | r :: more -> (
        match r.rewrite ~device todo with
        | Some _ as fired ->
          bump r.name;
          fired
        | None -> first todo more)
    in
    (* One left-to-right sweep.  A replacement is matched again where it
       lands; matches it enables further left wait for the optimizer's
       next sweep. *)
    let rec go acc todo =
      match todo with
      | [] -> List.rev acc
      | g :: rest -> (
        match first todo by_head.(Gate.kind g) with
        | Some todo' -> go acc todo'
        | None -> go (g :: acc) rest)
    in
    (* The first [k] gates, reversed: [go]'s accumulator after [k]
       gates that matched nothing. *)
    let rec rev_prefix k acc = function
      | g :: rest when k > 0 -> rev_prefix (k - 1) (g :: acc) rest
      | _ -> acc
    in
    (* Up to the first match the sweep keeps every gate, so it builds
       nothing there: a circuit no rule matches costs only the scan. *)
    let rec scan kept todo =
      match todo with
      | [] -> None
      | g :: rest -> (
        match first todo by_head.(Gate.kind g) with
        | Some todo' -> Some (go (rev_prefix kept [] (Circuit.gates c)) todo')
        | None -> scan (kept + 1) rest)
    in
    match scan 0 (Circuit.gates c) with
    | None -> (c, [])
    | Some gates ->
      let applied =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
      in
      (Circuit.make ~n:(Circuit.n_qubits c) gates, applied)
  end

(* ---- rotation merging ------------------------------------------------ *)

type axis = Ax | Ay | Az

let axis_rotation = function
  | Gate.Rx (t, q) -> Some (Ax, t, q)
  | Gate.Ry (t, q) -> Some (Ay, t, q)
  | Gate.Rz (t, q) -> Some (Az, t, q)
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Phase _ | Gate.Cnot _ | Gate.Cz _
  | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
    None

let rotation_gate ax theta q =
  match ax with
  | Ax -> Gate.Rx (theta, q)
  | Ay -> Gate.Ry (theta, q)
  | Az -> Gate.Rz (theta, q)

(* Rotations have period 4 pi exactly — Rz(2 pi) = -I — so deletion
   demands a 4 pi multiple (within 1e-12, matching the optimizer's
   angle-snapping tolerance). *)
let rotation_deletable theta =
  let period = 4.0 *. Float.pi in
  let r = Float.rem theta period in
  abs_float r < 1e-12 || period -. abs_float r < 1e-12

let merge_rotations c =
  let n = Circuit.n_qubits c in
  (* No rotation, nothing to merge: Clifford+T circuits, every
     decomposed benchmark among them, return here. *)
  if n = 0
     || not
          (List.exists (fun g -> Option.is_some (axis_rotation g)) (Circuit.gates c))
  then (c, 0)
  else begin
    let pending : (axis * float) option array = Array.make n None in
    let out = Circuit.Builder.create ~n in
    let eliminated = ref 0 in
    let flush q =
      match pending.(q) with
      | None -> ()
      | Some (ax, theta) ->
        pending.(q) <- None;
        if rotation_deletable theta then incr eliminated
        else Circuit.Builder.add out (rotation_gate ax theta q)
    in
    Circuit.iter
      (fun g ->
        match axis_rotation g with
        | Some (ax, theta, q) -> (
          match pending.(q) with
          (* A sum that overflows is no angle: both rotations stay. *)
          | Some (ax', acc) when ax' = ax && Float.is_finite (acc +. theta) ->
            pending.(q) <- Some (ax, acc +. theta);
            incr eliminated
          | Some _ ->
            flush q;
            pending.(q) <- Some (ax, theta)
          | None -> pending.(q) <- Some (ax, theta))
        | None ->
          List.iter
            (fun q ->
              match pending.(q) with
              | None -> ()
              | Some (ax, theta) ->
                if not (Gate.commutes (rotation_gate ax theta q) g) then flush q)
            (Gate.support g);
          Circuit.Builder.add out g)
      c;
    for q = 0 to n - 1 do
      flush q
    done;
    if !eliminated = 0 then (c, 0)
    else (Circuit.Builder.to_circuit out, !eliminated)
  end

(* ---- phase-polynomial merging ---------------------------------------- *)

(* Each wire carries an affine parity: a sorted list of variables (the
   initial wire values plus a fresh variable per non-affine write) and a
   complement bit.  Diagonal rotations applied where the same parity is
   live realize the same operator — a phase that depends only on that
   parity's value — so their angles fold into the first occurrence.
   This is staq-style phase folding; soundness is the path-sum argument:
   diagonal factors over equal parity functions are interchangeable
   inside the amplitude product. *)

type slot = {
  mutable sum : float;
  mutable hits : int;
  s_wire : int;
  s_const : bool;
  s_gate : Gate.t;  (* the original gate, re-emitted when unmerged *)
  s_rz : bool;
}

(* What the walk decides for a gate: it passes through, it opens a slot
   (the first diagonal rotation on its parity), or it folds into the
   slot already open for its parity. *)
type decision = Keep | Open of slot | Fold

(* The gate an opened slot emits, if any. *)
let slot_gate s =
  if s.hits = 1 then Some s.s_gate
  else if s.s_rz then
    if rotation_deletable s.sum then None
    else Some (Gate.Rz ((if s.s_const then -.s.sum else s.sum), s.s_wire))
  else Gate.phase_gate s.sum s.s_wire

let merge_phase_polynomial c =
  let n = Circuit.n_qubits c in
  if n = 0 then (c, 0)
  else begin
    let rec symdiff a b =
      match (a, b) with
      | [], r | r, [] -> r
      | x :: xs, y :: ys ->
        if x < y then x :: symdiff xs b
        else if y < x then y :: symdiff a ys
        else symdiff xs ys
    in
    (* A walk from the initial parities, with no slot open: it decides
       each gate, in circuit order. *)
    let classifier () =
      let fresh = ref n in
      let parity = Array.init n (fun i -> ([ i ], false)) in
      let new_var q =
        parity.(q) <- ([ !fresh ], false);
        incr fresh
      in
      let slots : (bool * int list * bool, slot) Hashtbl.t = Hashtbl.create 64 in
      let hit key contribution ~wire ~const ~gate ~rz =
        match Hashtbl.find_opt slots key with
        (* A sum that overflows is no angle: the gate stays as written. *)
        | Some s when not (Float.is_finite (s.sum +. contribution)) -> Keep
        | Some s ->
          s.sum <- s.sum +. contribution;
          s.hits <- s.hits + 1;
          Fold
        | None ->
          let s =
            { sum = contribution; hits = 1; s_wire = wire; s_const = const;
              s_gate = gate; s_rz = rz }
          in
          Hashtbl.replace slots key s;
          Open s
      in
      fun g ->
        match Gate.phase_angle g with
        | Some (phi, q) ->
          let p, cst = parity.(q) in
          hit (true, p, cst) phi ~wire:q ~const:cst ~gate:g ~rz:false
        | None -> (
          match g with
          | Gate.Rz (theta, q) ->
            let p, cst = parity.(q) in
            (* Rz through a complemented parity is Rz with the angle
               negated — exactly, with no global-phase residue — so the
               contribution normalizes to the plain-parity frame and the
               complement bit stays out of the key. *)
            hit (false, p, false)
              (if cst then -.theta else theta)
              ~wire:q ~const:cst ~gate:g ~rz:true
          | Gate.Cnot { control; target } ->
            let pc, cc = parity.(control) and pt, ct = parity.(target) in
            parity.(target) <- (symdiff pc pt, cc <> ct);
            Keep
          | Gate.X q ->
            let p, cst = parity.(q) in
            parity.(q) <- (p, not cst);
            Keep
          | Gate.Swap (a, b) ->
            let pa = parity.(a) in
            parity.(a) <- parity.(b);
            parity.(b) <- pa;
            Keep
          | Gate.Cz _ ->
            (* diagonal: preserves every wire's computational value *)
            Keep
          | Gate.Toffoli { target; _ } | Gate.Mct { target; _ } ->
            (* a permutation, but the target update is non-affine *)
            new_var target;
            Keep
          | Gate.H q | Gate.Y q | Gate.Rx (_, q) | Gate.Ry (_, q) ->
            new_var q;
            Keep
          | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _
          | Gate.Phase _ ->
            (* unreachable: phase_angle covers the whole phase family *)
            Keep)
    in
    let gates = Circuit.gates c in
    (* The pass eliminates a gate exactly when some rotation folds into
       an open slot, so a first walk that stops at the first fold
       settles that without building a decision or a gate list. *)
    let folds =
      let classify = classifier () in
      List.exists
        (fun g -> match classify g with Fold -> true | Keep | Open _ -> false)
        gates
    in
    if not folds then (c, 0)
    else begin
      let classify = classifier () in
      let decisions = List.rev (List.rev_map classify gates) in
      let out =
        List.fold_left2
          (fun acc g -> function
            | Keep -> g :: acc
            | Fold -> acc
            | Open s -> (
              match slot_gate s with None -> acc | Some g' -> g' :: acc))
          [] gates decisions
      in
      (Circuit.make ~n (List.rev out), Circuit.gate_count c - List.length out)
    end
  end

(* ---- Clifford normalization ------------------------------------------ *)

(* The alphabet of the normal forms, in the order the search below
   tries it. *)
let clifford_alphabet = [| Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.X 0; Gate.Y 0; Gate.Z 0 |]

let letters = Array.length clifford_alphabet

(* The one-qubit Clifford group with its global phases, in exact
   integers.  Every entry of such a matrix is 0 or w^k times one
   magnitude, w = e^(i pi/4): the magnitude is 1 when the matrix has a
   zero entry and 1/sqrt 2 when it has none.  An entry's code is 0 for
   0 and 1 + k otherwise, and a matrix's key is its four codes in base
   9, row by row.  [times code k] multiplies an entry by w^k. *)
let times code k = if code = 0 then 0 else 1 + ((code - 1 + k) land 7)

let key_of e00 e01 e10 e11 = e00 + (9 * e01) + (81 * e10) + (729 * e11)

(* The key of [letter * m] for the matrix [m] with key [key]. *)
let left_multiply letter key =
  let e00 = key mod 9 and e01 = key / 9 mod 9 and e10 = key / 81 mod 9 in
  let e11 = key / 729 in
  match letter with
  | 0 ->
    (* H: row 0 becomes (r0 + r1)/sqrt 2 and row 1 (r0 - r1)/sqrt 2.  In
       a matrix with a zero each column holds one entry of magnitude 1,
       and comes out as two of magnitude 1/sqrt 2.  In one without, the
       two entries of a column (magnitude 1/sqrt 2) differ in phase by
       w^d for an even d: equal (d = 0) or opposite (d = 4), they come
       out as one entry of magnitude 1 and a zero; a quarter turn apart
       (d = 2 or 6), as two of magnitude 1/sqrt 2, an eighth of a turn
       either side of the first. *)
    let with_zero = e00 = 0 || e01 = 0 || e10 = 0 || e11 = 0 in
    let top a b =
      if with_zero then if a <> 0 then a else b
      else
        match (b - a) land 7 with 0 -> a | 4 -> 0 | 2 -> times a 1 | _ -> times a 7
    in
    let bottom a b =
      if with_zero then if a <> 0 then a else times b 4
      else
        match (b - a) land 7 with 0 -> 0 | 4 -> a | 2 -> times a 7 | _ -> times a 1
    in
    key_of (top e00 e10) (top e01 e11) (bottom e00 e10) (bottom e01 e11)
  | 1 -> key_of e00 e01 (times e10 2) (times e11 2) (* S *)
  | 2 -> key_of e00 e01 (times e10 6) (times e11 6) (* Sdg *)
  | 3 -> key_of e10 e11 e00 e01 (* X *)
  | 4 -> key_of (times e10 6) (times e11 6) (times e00 2) (times e01 2) (* Y *)
  | _ -> key_of e00 e01 (times e10 4) (times e11 4) (* Z *)

(* The group's elements, numbered in the order a breadth-first search
   from the identity (element 0) over the alphabet meets them.
   [step.(e * letters + l)] is the element [letter l * e], so a run's
   product costs one lookup per gate.  [words.(e)] is the word the
   search first reached [e] by, in circuit order, when it has at most 6
   letters, and [word_len.(e)] its length; -1 marks the elements that
   need 7.  Built eagerly at module init, in tens of microseconds: a
   [lazy] here would race when bench/fuzz fan optimization across
   domains (concurrent forcing raises [CamlinternalLazy.Undefined]). *)
let clifford_elements, step, words, word_len =
  let order = 192 in
  let keys = Array.make order 0 and index = Hashtbl.create 256 in
  let step = Array.make (order * letters) 0 in
  let words = Array.make order [] and word_len = Array.make order (-1) in
  let identity = key_of 1 0 0 1 in
  Hashtbl.replace index identity 0;
  keys.(0) <- identity;
  word_len.(0) <- 0;
  let found = ref 1 and e = ref 0 in
  while !e < !found do
    for l = 0 to letters - 1 do
      let key = left_multiply l keys.(!e) in
      let e' =
        match Hashtbl.find_opt index key with
        | Some e' -> e'
        | None ->
          let e' = !found in
          incr found;
          keys.(e') <- key;
          Hashtbl.replace index key e';
          if word_len.(!e) >= 0 && word_len.(!e) < 6 then begin
            words.(e') <- words.(!e) @ [ clifford_alphabet.(l) ];
            word_len.(e') <- word_len.(!e) + 1
          end;
          e'
      in
      step.((!e * letters) + l) <- e'
    done;
    incr e
  done;
  (!found, step, words, word_len)

let clifford_word e = if word_len.(e) < 0 then None else Some words.(e)

let normalize_cliffords c =
  let n = Circuit.n_qubits c and gates = Circuit.gates c in
  let count = List.length gates in
  (* Each wire's open run: its first and last gate, its length and its
     product.  [link.(i)] is the run's gate after [i]. *)
  let first = Array.make n 0 and last = Array.make n 0 in
  let len = Array.make n 0 and product = Array.make n 0 in
  let link = Array.make count 0 in
  (* What the output does with each gate, made at the first
     replacement: [keep], [drop], or the element whose word it emits. *)
  let keep = -1 and drop = -2 in
  let fate = ref [||] in
  let eliminated = ref 0 in
  let finalize q =
    let e = product.(q) in
    if len.(q) >= 2 && word_len.(e) >= 0 && word_len.(e) < len.(q) then begin
      if Array.length !fate = 0 then fate := Array.make count keep;
      let fate = !fate in
      fate.(first.(q)) <- e;
      let j = ref first.(q) in
      for _ = 2 to len.(q) do
        j := link.(!j);
        fate.(!j) <- drop
      done;
      eliminated := !eliminated + len.(q) - word_len.(e)
    end;
    len.(q) <- 0
  in
  let extend i q l =
    if len.(q) = 0 then begin
      first.(q) <- i;
      product.(q) <- step.(l)
    end
    else begin
      link.(last.(q)) <- i;
      product.(q) <- step.((product.(q) * letters) + l)
    end;
    last.(q) <- i;
    len.(q) <- len.(q) + 1
  in
  let rec walk i = function
    | [] -> ()
    | g :: rest ->
      (* A letter extends its wire's run by its index in
         [clifford_alphabet]; any other gate ends the runs of its
         wires. *)
      (match g with
      | Gate.H q -> extend i q 0
      | Gate.S q -> extend i q 1
      | Gate.Sdg q -> extend i q 2
      | Gate.X q -> extend i q 3
      | Gate.Y q -> extend i q 4
      | Gate.Z q -> extend i q 5
      | Gate.T q | Gate.Tdg q
      | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
        finalize q
      | Gate.Cnot { control = a; target = b } | Gate.Cz (a, b) | Gate.Swap (a, b) ->
        finalize a;
        finalize b
      | Gate.Toffoli { c1; c2; target } ->
        finalize c1;
        finalize c2;
        finalize target
      | Gate.Mct { controls; target } ->
        List.iter finalize controls;
        finalize target);
      walk (i + 1) rest
  in
  walk 0 gates;
  for q = 0 to n - 1 do
    finalize q
  done;
  if !eliminated = 0 then (c, 0)
  else begin
    let fate = !fate and out = Circuit.Builder.create ~n in
    List.iteri
      (fun i g ->
        let f = fate.(i) in
        if f = keep then Circuit.Builder.add out g
        else if f <> drop then
          let q = Gate.max_qubit g in
          Circuit.Builder.add_list out (List.map (Gate.rename (fun _ -> q)) words.(f)))
      gates;
    (Circuit.Builder.to_circuit out, !eliminated)
  end
