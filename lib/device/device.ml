type t = {
  name : string;
  n_qubits : int;
  couplings : (int * int) list;  (* sorted, directed (control, target) *)
  adjacency : int list array;  (* undirected neighbor lists *)
  directed : (int, unit) Hashtbl.t;  (* control * n_qubits + target *)
  simulator : bool;
}

let build ~name ~n_qubits ~simulator couplings =
  if n_qubits <= 0 then invalid_arg "Device.make: need at least one qubit";
  let directed = Hashtbl.create (List.length couplings * 2) in
  List.iter
    (fun (c, tgt) ->
      if c < 0 || c >= n_qubits || tgt < 0 || tgt >= n_qubits then
        invalid_arg
          (Printf.sprintf "Device.make: coupling (%d,%d) outside register" c tgt);
      if c = tgt then invalid_arg "Device.make: self-coupling";
      if Hashtbl.mem directed ((c * n_qubits) + tgt) then
        invalid_arg
          (Printf.sprintf "Device.make: duplicate coupling (%d,%d)" c tgt);
      Hashtbl.add directed ((c * n_qubits) + tgt) ())
    couplings;
  let adjacency = Array.make n_qubits [] in
  List.iter
    (fun (c, tgt) ->
      if not (List.mem tgt adjacency.(c)) then adjacency.(c) <- tgt :: adjacency.(c);
      if not (List.mem c adjacency.(tgt)) then adjacency.(tgt) <- c :: adjacency.(tgt))
    couplings;
  Array.iteri (fun q ns -> adjacency.(q) <- List.sort Int.compare ns) adjacency;
  {
    name;
    n_qubits;
    couplings = List.sort compare couplings;
    adjacency;
    directed;
    simulator;
  }

let make ~name ~n_qubits couplings = build ~name ~n_qubits ~simulator:false couplings

let name d = d.name
let n_qubits d = d.n_qubits
let couplings d = d.couplings

(* An integer key, so a lookup allocates nothing.  Out-of-range qubits
   are never coupled: the range check keeps their keys from landing on
   an in-range pair's. *)
let directed d control target =
  control >= 0 && control < d.n_qubits && target >= 0 && target < d.n_qubits
  && Hashtbl.mem d.directed ((control * d.n_qubits) + target)

let allows_cnot d ~control ~target = d.simulator || directed d control target
let coupled d a b = d.simulator || directed d a b || directed d b a

let neighbors d q =
  if d.simulator then
    List.filter (fun k -> k <> q) (List.init d.n_qubits (fun i -> i))
  else d.adjacency.(q)

let coupling_complexity d =
  if d.simulator then 1.0
  else
    let permutations = d.n_qubits * (d.n_qubits - 1) in
    float_of_int (List.length d.couplings) /. float_of_int permutations

let is_connected d =
  d.simulator
  ||
  let seen = Array.make d.n_qubits false in
  let rec visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      List.iter visit d.adjacency.(q)
    end
  in
  visit 0;
  Array.for_all (fun b -> b) seen

let simulator ~n_qubits =
  build ~name:"simulator" ~n_qubits ~simulator:true []

let is_simulator d = d.simulator

(* Parser for the paper's dictionary notation: {a:[b,c], d:[e], ...} *)
let of_dict_string ~name ~n_qubits s =
  let fail msg = invalid_arg ("Device.of_dict_string: " ^ msg) in
  let s = String.trim s in
  let len = String.length s in
  if len < 2 || s.[0] <> '{' || s.[len - 1] <> '}' then
    fail "expected {...}";
  let body = String.sub s 1 (len - 2) in
  (* Split on commas that are outside brackets. *)
  let entries = ref [] in
  let depth = ref 0 in
  let start = ref 0 in
  String.iteri
    (fun i ch ->
      match ch with
      | '[' -> incr depth
      | ']' -> decr depth
      | ',' when !depth = 0 ->
        entries := String.sub body !start (i - !start) :: !entries;
        start := i + 1
      | _ -> ())
    body;
  entries := String.sub body !start (String.length body - !start) :: !entries;
  let parse_int str =
    match int_of_string_opt (String.trim str) with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad integer %S" str)
  in
  let parse_entry entry =
    let entry = String.trim entry in
    if entry = "" then []
    else
      match String.index_opt entry ':' with
      | None -> fail (Printf.sprintf "missing ':' in %S" entry)
      | Some colon ->
        let control = parse_int (String.sub entry 0 colon) in
        let rest = String.trim (String.sub entry (colon + 1) (String.length entry - colon - 1)) in
        let rlen = String.length rest in
        if rlen < 2 || rest.[0] <> '[' || rest.[rlen - 1] <> ']' then
          fail (Printf.sprintf "expected [..] in %S" entry);
        let inner = String.trim (String.sub rest 1 (rlen - 2)) in
        if inner = "" then []
        else
          String.split_on_char ',' inner
          |> List.map (fun tgt -> (control, parse_int tgt))
  in
  let couplings = List.concat_map parse_entry (List.rev !entries) in
  make ~name ~n_qubits couplings

let to_dict_string d =
  let by_control = Hashtbl.create 16 in
  List.iter
    (fun (c, t) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_control c) in
      Hashtbl.replace by_control c (t :: existing))
    d.couplings;
  let controls =
    Hashtbl.fold (fun c _ acc -> c :: acc) by_control []
    |> List.sort Int.compare
  in
  let entry c =
    let targets = List.sort Int.compare (Hashtbl.find by_control c) in
    Printf.sprintf "%d:[%s]" c
      (String.concat "," (List.map string_of_int targets))
  in
  "{" ^ String.concat ", " (List.map entry controls) ^ "}"

module Ibm = struct
  let of_pairs name n pairs = make ~name ~n_qubits:n pairs

  let expand pairs =
    List.concat_map (fun (c, targets) -> List.map (fun t -> (c, t)) targets) pairs

  (* Coupling maps exactly as printed in Section 3 of the paper. *)
  let ibmqx2 =
    of_pairs "ibmqx2" 5 (expand [ (0, [ 1; 2 ]); (1, [ 2 ]); (3, [ 2; 4 ]); (4, [ 2 ]) ])

  let ibmqx3 =
    of_pairs "ibmqx3" 16
      (expand
         [
           (0, [ 1 ]); (1, [ 2 ]); (2, [ 3 ]); (3, [ 14 ]); (4, [ 3; 5 ]);
           (6, [ 7; 11 ]); (7, [ 10 ]); (8, [ 7 ]); (9, [ 8; 10 ]);
           (11, [ 10 ]); (12, [ 5; 11; 13 ]); (13, [ 4; 14 ]); (15, [ 0; 14 ]);
         ])

  let ibmqx4 =
    of_pairs "ibmqx4" 5 (expand [ (1, [ 0 ]); (2, [ 0; 1 ]); (3, [ 2; 4 ]); (4, [ 2 ]) ])

  let ibmqx5 =
    of_pairs "ibmqx5" 16
      (expand
         [
           (1, [ 0; 2 ]); (2, [ 3 ]); (3, [ 4; 14 ]); (5, [ 4 ]);
           (6, [ 5; 7; 11 ]); (7, [ 10 ]); (8, [ 7 ]); (9, [ 8; 10 ]);
           (11, [ 10 ]); (12, [ 5; 11; 13 ]); (13, [ 4; 14 ]); (15, [ 0; 2; 14 ]);
         ])

  let ibmq_16 =
    of_pairs "ibmq_16" 14
      (expand
         [
           (1, [ 0; 2 ]); (2, [ 3 ]); (4, [ 3; 10 ]); (5, [ 4; 6; 9 ]);
           (6, [ 8 ]); (7, [ 8 ]); (9, [ 8; 10 ]); (11, [ 3; 10; 12 ]);
           (12, [ 2 ]); (13, [ 1; 12 ]);
         ])

  (* The proposed 96-qubit machine of Fig. 7: six rows of 16 qubits.
     Qubit (r, c) has index r*16 + c.  Each row is an ibmqx5-style chain
     with alternating CNOT direction; adjacent rows are stitched with
     vertical links every other column, again with alternating
     direction, which keeps the map sparse and unidirectional like the
     16-qubit IBM machines that inspired it. *)
  let big96 =
    let index r c = (r * 16) + c in
    let horizontal =
      List.concat_map
        (fun r ->
          List.map
            (fun c ->
              let a = index r c and b = index r (c + 1) in
              if (c + r) mod 2 = 0 then (a, b) else (b, a))
            (List.init 15 (fun c -> c)))
        (List.init 6 (fun r -> r))
    in
    let vertical =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun c ->
              if c mod 2 = 0 then
                let a = index r c and b = index (r + 1) c in
                Some (if (r + (c / 2)) mod 2 = 0 then (a, b) else (b, a))
              else None)
            (List.init 16 (fun c -> c)))
        (List.init 5 (fun r -> r))
    in
    of_pairs "big96" 96 (horizontal @ vertical)

  (* The 20-qubit commercial machine of Section 3: the Tokyo 4x5 grid
     with its diagonal braces, bidirectional CNOTs. *)
  let tokyo20 =
    let grid r c = (r * 5) + c in
    let horizontal =
      List.concat_map
        (fun r -> List.init 4 (fun c -> (grid r c, grid r (c + 1))))
        (List.init 4 (fun r -> r))
    in
    let vertical =
      List.concat_map
        (fun r -> List.init 5 (fun c -> (grid r c, grid (r + 1) c)))
        (List.init 3 (fun r -> r))
    in
    let diagonals =
      [
        (grid 0 1, grid 1 0); (grid 0 3, grid 1 2); (grid 0 2, grid 1 3);
        (grid 1 0, grid 2 1); (grid 1 1, grid 2 0); (grid 1 2, grid 2 3);
        (grid 1 3, grid 2 2); (grid 2 1, grid 3 0); (grid 2 0, grid 3 1);
        (grid 2 3, grid 3 4); (grid 2 4, grid 3 3);
      ]
    in
    let directed =
      List.concat_map
        (fun (a, b) -> [ (a, b); (b, a) ])
        (horizontal @ vertical @ diagonals)
    in
    of_pairs "tokyo20" 20 (List.sort_uniq compare directed)

  let all = [ ibmqx2; ibmqx3; ibmqx4; ibmqx5; ibmq_16 ]
end

let ion_trap ~n_qubits =
  if n_qubits < 2 then invalid_arg "Device.ion_trap: need at least 2 qubits";
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a <> b then Some (a, b) else None)
          (List.init n_qubits (fun i -> i)))
      (List.init n_qubits (fun i -> i))
  in
  make ~name:(Printf.sprintf "ion_trap%d" n_qubits) ~n_qubits pairs

let registry () =
  List.map (fun d -> (d.name, d)) (Ibm.all @ [ Ibm.big96; Ibm.tokyo20 ])

let find device_name = List.assoc device_name (registry ())
