let now_ns () = Monotonic_clock.now ()

let past = function
  | None -> false
  | Some d -> Int64.compare (now_ns ()) d >= 0
let cpu_seconds () = Sys.time ()

type snapshot = {
  gate_volume : int;
  depth : int;
  t_count : int;
  t_depth : int;
  cnot_count : int;
  cost : float;
}

let snapshot ?(cost = Cost.eqn2) c =
  let s = Circuit.full_stats c in
  {
    gate_volume = s.Circuit.fs_gate_volume;
    depth = s.Circuit.fs_depth;
    t_count = s.Circuit.fs_t_count;
    t_depth = s.Circuit.fs_t_depth;
    cnot_count = s.Circuit.fs_cnot_count;
    cost = Cost.evaluate cost c;
  }

type span = {
  name : string;
  index : int;
  wall_seconds : float;
  cpu_seconds : float;
  before : snapshot option;
  after : snapshot option;
  counters : (string * float) list;
}

(* A recording sink may be shared by several threads or domains, so
   every mutable field is guarded by [lock].  The Disabled constructor
   never allocates a recorder, keeping the disabled path lock-free and
   allocation-free. *)
type recorder = {
  lock : Mutex.t;
  mutable rev_spans : span list;
  mutable count : int;
  born_ns : int64;
  totals : (string, float) Hashtbl.t;
}

type t = Disabled | Recording of recorder

let disabled = Disabled

let create () =
  Recording
    {
      lock = Mutex.create ();
      rev_spans = [];
      count = 0;
      born_ns = now_ns ();
      totals = Hashtbl.create 16;
    }

let with_lock r f =
  Mutex.lock r.lock;
  match f () with
  | v ->
    Mutex.unlock r.lock;
    v
  | exception e ->
    Mutex.unlock r.lock;
    raise e

let enabled = function
  | Disabled -> false
  | Recording _ -> true

type started = {
  s_name : string;
  t0_ns : int64;
  cpu0 : float;
  s_before : snapshot option;
}

(* The token handed out by a disabled sink: one shared constant, so the
   disabled path allocates nothing and reads no clock. *)
let dead_token = { s_name = ""; t0_ns = 0L; cpu0 = 0.0; s_before = None }

let start_span t name before =
  match t with
  | Disabled -> dead_token
  | Recording _ ->
    { s_name = name; t0_ns = now_ns (); cpu0 = cpu_seconds (); s_before = before }

let start t name = start_span t name None

let start_with t name ?cost c =
  match t with
  | Disabled -> dead_token
  | Recording _ -> start_span t name (Some (snapshot ?cost c))

let record r s after counters =
  let wall = Int64.to_float (Int64.sub (now_ns ()) s.t0_ns) /. 1e9 in
  let span =
    {
      name = s.s_name;
      index = r.count;
      wall_seconds = wall;
      cpu_seconds = cpu_seconds () -. s.cpu0;
      before = s.s_before;
      after;
      counters;
    }
  in
  r.count <- r.count + 1;
  r.rev_spans <- span :: r.rev_spans

let record r s after counters =
  (* The span index is assigned under the lock, so concurrent stops get
     distinct, dense indices. *)
  with_lock r (fun () -> record r s after counters)

let stop t s ?(counters = []) () =
  match t with
  | Disabled -> ()
  | Recording r -> record r s None counters

let stop_with t s ?cost ?(counters = []) c =
  match t with
  | Disabled -> ()
  | Recording r -> record r s (Some (snapshot ?cost c)) counters

let spans = function
  | Disabled -> []
  | Recording r -> with_lock r (fun () -> List.rev r.rev_spans)

let total_wall_seconds = function
  | Disabled -> 0.0
  | Recording r -> Int64.to_float (Int64.sub (now_ns ()) r.born_ns) /. 1e9

let bump t name delta =
  match t with
  | Disabled -> ()
  | Recording r ->
    with_lock r (fun () ->
        let current =
          match Hashtbl.find_opt r.totals name with Some v -> v | None -> 0.0
        in
        Hashtbl.replace r.totals name (current +. delta))

let counter_totals = function
  | Disabled -> []
  | Recording r ->
    with_lock r (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.totals [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_text spans =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %10s %10s %8s %8s %6s %6s\n" "pass" "wall-ms"
       "cpu-ms" "gates" "depth" "T" "cnot");
  List.iter
    (fun sp ->
      let cell f = function
        | None -> "-"
        | Some snap -> string_of_int (f snap)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %10.3f %10.3f %8s %8s %6s %6s\n" sp.name
           (sp.wall_seconds *. 1e3) (sp.cpu_seconds *. 1e3)
           (cell (fun s -> s.gate_volume) sp.after)
           (cell (fun s -> s.depth) sp.after)
           (cell (fun s -> s.t_count) sp.after)
           (cell (fun s -> s.cnot_count) sp.after));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf "    %-24s %g\n" k v))
        sp.counters)
    spans;
  Buffer.contents buf

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else
      (* Shortest representation that still round-trips the double. *)
      let short = Printf.sprintf "%.12g" v in
      if float_of_string short = v then short else Printf.sprintf "%.17g" v

  let rec write buf ~pretty ~level j =
    let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
    let sep () = Buffer.add_string buf (if pretty then ",\n" else ",") in
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float v ->
      Buffer.add_string buf
        (if Float.is_finite v then float_repr v else "null")
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf (if pretty then "[\n" else "[");
      List.iteri
        (fun i item ->
          if i > 0 then sep ();
          pad (level + 1);
          write buf ~pretty ~level:(level + 1) item)
        items;
      if pretty then Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf (if pretty then "{\n" else "{");
      List.iteri
        (fun i (k, v) ->
          if i > 0 then sep ();
          pad (level + 1);
          escape_to buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          write buf ~pretty ~level:(level + 1) v)
        fields;
      if pretty then Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf '}'

  let to_string ?(pretty = false) j =
    let buf = Buffer.create 1024 in
    write buf ~pretty ~level:0 j;
    if pretty then Buffer.add_char buf '\n';
    Buffer.contents buf

  exception Bad of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect ch =
      if !pos < n && s.[!pos] = ch then incr pos
      else fail (Printf.sprintf "expected %C" ch)
    in
    let literal word value =
      let k = String.length word in
      if !pos + k <= n && String.sub s !pos k = word then begin
        pos := !pos + k;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'u' ->
                 if !pos + 4 >= n then fail "short \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 let code =
                   match int_of_string_opt ("0x" ^ hex) with
                   | Some c -> c
                   | None -> fail "bad \\u escape"
                 in
                 (* Decode the BMP code point as UTF-8. *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                 end;
                 pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            loop ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        incr pos
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some v -> Float v
        | None -> fail (Printf.sprintf "bad number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec loop () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              items := parse_value () :: !items;
              loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          List (List.rev !items)
        end
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          let rec loop () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              fields := field () :: !fields;
              loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !fields)
        end
      | Some c -> parse_number_or_fail c
    and parse_number_or_fail c =
      match c with
      | '-' | '0' .. '9' -> parse_number ()
      | _ -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

  let number = function
    | Int i -> Some (float_of_int i)
    | Float v -> Some v
    | Null | Bool _ | String _ | List _ | Obj _ -> None
end

let snapshot_to_json s =
  Json.Obj
    [
      ("gate_volume", Json.Int s.gate_volume);
      ("depth", Json.Int s.depth);
      ("t_count", Json.Int s.t_count);
      ("t_depth", Json.Int s.t_depth);
      ("cnot_count", Json.Int s.cnot_count);
      ("cost", Json.Float s.cost);
    ]

let span_to_json sp =
  let opt_snapshot = function
    | None -> Json.Null
    | Some s -> snapshot_to_json s
  in
  Json.Obj
    [
      ("name", Json.String sp.name);
      ("index", Json.Int sp.index);
      ("wall_seconds", Json.Float sp.wall_seconds);
      ("cpu_seconds", Json.Float sp.cpu_seconds);
      ("before", opt_snapshot sp.before);
      ("after", opt_snapshot sp.after);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sp.counters) );
    ]

let to_json ?(meta = []) spans =
  Json.Obj (meta @ [ ("passes", Json.List (List.map span_to_json spans)) ])
