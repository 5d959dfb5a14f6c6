exception Injected of string

type fault = Raise | Nan_angle | Out_of_range_wire | Truncate

let all_faults = [ Raise; Nan_angle; Out_of_range_wire; Truncate ]

let fault_to_string = function
  | Raise -> "raise"
  | Nan_angle -> "nan-angle"
  | Out_of_range_wire -> "out-of-range-wire"
  | Truncate -> "truncate"

let fault_of_string s =
  List.find_opt (fun f -> fault_to_string f = s) all_faults

type spec = { stage : Diagnostic.stage; fault : fault }

let spec_to_string { stage; fault } =
  Printf.sprintf "%s@%s" (fault_to_string fault)
    (Diagnostic.stage_to_string stage)

let spec_of_string s =
  match String.index_opt s '@' with
  | None -> Error `No_at
  | Some i -> (
    let f = String.sub s 0 i
    and st = String.sub s (i + 1) (String.length s - i - 1) in
    match (fault_of_string f, Diagnostic.stage_of_string st) with
    | Some fault, Some stage -> Ok { stage; fault }
    | None, _ -> Error (`Unknown_fault f)
    | Some _, None -> Error (`Unknown_stage st))

let stages =
  [
    Diagnostic.Front_end;
    Diagnostic.Pre_optimize;
    Diagnostic.Decompose;
    Diagnostic.Place;
    Diagnostic.Route;
    Diagnostic.Expand_swaps;
    Diagnostic.Post_optimize;
  ]

let matrix =
  List.concat_map
    (fun stage -> List.map (fun fault -> { stage; fault }) all_faults)
    stages

type t = {
  rng : Random.State.t;
  mutable pending : spec list;
  mutable fired : spec list;  (* reverse firing order *)
}

let default_seed = 0

let create ?(seed = default_seed) specs =
  { rng = Random.State.make [| seed |]; pending = specs; fired = [] }

let take n gates =
  List.filteri (fun i _ -> i < n) gates

(* Every randomized fault draws from the RNG unconditionally — even
   when the stage circuit is empty or as narrow as the IR allows — so a
   given seed fires the same fault sequence regardless of how large
   each stage's circuit happens to be.  Guarding the draw behind the
   circuit's size would let one stage's output shift every later
   fault's randomness. *)
let apply h spec c =
  let n = Circuit.n_qubits c in
  match spec.fault with
  | Raise -> raise (Injected (Diagnostic.stage_to_string spec.stage))
  | Nan_angle ->
    let wire = Random.State.int h.rng (max 1 n) in
    Circuit.append c (Gate.Rz (Float.nan, wire))
  | Out_of_range_wire ->
    (* Circuit.make rejects the wire; the compiler's stage guard must
       turn that Invalid_argument into an [Invalid_gate] diagnostic. *)
    Circuit.make ~n (Circuit.gates c @ [ Gate.X n ])
  | Truncate ->
    let gates = Circuit.gates c in
    let len = List.length gates in
    let keep = Random.State.int h.rng (max 1 len) in
    if len = 0 then c else Circuit.make ~n (take keep gates)

let hook h stage c =
  let mine, rest =
    List.partition (fun s -> s.stage = stage) h.pending
  in
  h.pending <- rest;
  List.fold_left
    (fun c spec ->
      h.fired <- spec :: h.fired;
      apply h spec c)
    c mine

let fired h = List.rev h.fired

(* --- the socket-layer fault plane ----------------------------------- *)

module Socket = struct
  type fault =
    | Torn_frame of int
    | Disconnect_before_read
    | Stalled_write of int
    | Stalled_read of int

  type event =
    | Request of { fault : fault option; frame : string }
    | Burst of int

  type plan = event list

  let fault_to_string = function
    | Torn_frame k -> Printf.sprintf "torn@%d" k
    | Disconnect_before_read -> "drop"
    | Stalled_write ms -> Printf.sprintf "stallw@%d" ms
    | Stalled_read ms -> Printf.sprintf "stallr@%d" ms

  let event_to_string = function
    | Request { fault = None; frame } -> "req " ^ frame
    | Request { fault = Some f; frame } -> fault_to_string f ^ " " ^ frame
    | Burst n -> Printf.sprintf "burst@%d" n

  let plan_to_string plan =
    String.concat "\n" (List.map event_to_string plan) ^ "\n"

  let parse_tag tag =
    let split_at name =
      let prefix = name ^ "@" in
      let plen = String.length prefix in
      if
        String.length tag > plen
        && String.sub tag 0 plen = prefix
      then int_of_string_opt (String.sub tag plen (String.length tag - plen))
      else None
    in
    if tag = "req" then Some `Plain
    else if tag = "drop" then Some `Drop
    else
      match split_at "torn" with
      | Some k -> Some (`Torn k)
      | None -> (
        match split_at "stallw" with
        | Some ms -> Some (`Stallw ms)
        | None -> (
          match split_at "stallr" with
          | Some ms -> Some (`Stallr ms)
          | None -> (
            match split_at "burst" with
            | Some n -> Some (`Burst n)
            | None -> None)))

  let event_of_string line =
    let tag, rest =
      match String.index_opt line ' ' with
      | Some i ->
        ( String.sub line 0 i,
          String.sub line (i + 1) (String.length line - i - 1) )
      | None -> (line, "")
    in
    match parse_tag tag with
    | Some `Plain -> Ok (Request { fault = None; frame = rest })
    | Some `Drop ->
      Ok (Request { fault = Some Disconnect_before_read; frame = rest })
    | Some (`Torn k) when k >= 0 ->
      Ok (Request { fault = Some (Torn_frame k); frame = rest })
    | Some (`Stallw ms) when ms >= 0 ->
      Ok (Request { fault = Some (Stalled_write ms); frame = rest })
    | Some (`Stallr ms) when ms >= 0 ->
      Ok (Request { fault = Some (Stalled_read ms); frame = rest })
    | Some (`Burst n) when n >= 1 && rest = "" -> Ok (Burst n)
    | Some (`Torn _ | `Stallw _ | `Stallr _ | `Burst _) | None ->
      Error (Printf.sprintf "unparseable chaos event %S" line)

  let plan_of_string text =
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match event_of_string line with
        | Ok event -> go (event :: acc) rest
        | Error _ as e -> e)
    in
    go [] lines

  (* Stall durations stay well under any realistic read deadline: the
     point is a peer that is slow, not one that has silently gone. *)
  let random_event rng ~frame =
    match Random.State.int rng 6 with
    | 0 | 1 -> Request { fault = None; frame }
    | 2 ->
      let k = Random.State.int rng (max 1 (String.length frame)) in
      Request { fault = Some (Torn_frame k); frame }
    | 3 -> Request { fault = Some Disconnect_before_read; frame }
    | 4 ->
      Request
        { fault = Some (Stalled_write (5 + Random.State.int rng 56)); frame }
    | _ ->
      Request
        { fault = Some (Stalled_read (2 + Random.State.int rng 29)); frame }

  let random_burst rng = Burst (2 + Random.State.int rng 5)
end
