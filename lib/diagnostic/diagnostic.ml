type stage =
  | Driver
  | Front_end
  | Pre_optimize
  | Decompose
  | Place
  | Route
  | Expand_swaps
  | Post_optimize
  | Verify

(* The names double as trace-span names: Compiler.compile_checked names
   each stage's span with this function and spells no stage name of its
   own. *)
let stage_to_string = function
  | Driver -> "driver"
  | Front_end -> "front-end"
  | Pre_optimize -> "pre-optimize"
  | Decompose -> "decompose"
  | Place -> "place"
  | Route -> "route"
  | Expand_swaps -> "expand-swaps"
  | Post_optimize -> "post-optimize"
  | Verify -> "verify"

let all_stages =
  [
    Driver; Front_end; Pre_optimize; Decompose; Place; Route; Expand_swaps;
    Post_optimize; Verify;
  ]

let stage_of_string s =
  List.find_opt (fun st -> stage_to_string st = s) all_stages

type kind =
  | Parse
  | Io
  | Unsupported
  | Capacity
  | Unroutable
  | Budget_exhausted
  | Invalid_gate
  | Contract_violation
  | Verification_failed
  | Lint_finding
  | Protocol
  | Internal

let kind_to_string = function
  | Parse -> "parse"
  | Io -> "io"
  | Unsupported -> "unsupported"
  | Capacity -> "capacity"
  | Unroutable -> "unroutable"
  | Budget_exhausted -> "budget-exhausted"
  | Invalid_gate -> "invalid-gate"
  | Contract_violation -> "contract-violation"
  | Verification_failed -> "verification-failed"
  | Lint_finding -> "lint"
  | Protocol -> "protocol"
  | Internal -> "internal"

let all_kinds =
  [
    Parse; Io; Unsupported; Capacity; Unroutable; Budget_exhausted;
    Invalid_gate; Contract_violation; Verification_failed; Lint_finding;
    Protocol; Internal;
  ]

let kind_of_string s = List.find_opt (fun k -> kind_to_string k = s) all_kinds

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type t = {
  stage : stage;
  kind : kind;
  severity : severity;
  file : string option;
  line : int option;
  message : string;
}

let make severity ?file ?line ~stage ~kind message =
  { stage; kind; severity; file; line; message }

let error ?file ?line ~stage ~kind message =
  make Error ?file ?line ~stage ~kind message

let warning ?file ?line ~stage ~kind message =
  make Warning ?file ?line ~stage ~kind message

let to_string d =
  let location =
    match (d.file, d.line) with
    | Some f, Some l -> Printf.sprintf "%s:%d: " f l
    | Some f, None -> Printf.sprintf "%s: " f
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  Printf.sprintf "%s[%s] %s: %s" location (stage_to_string d.stage)
    (kind_to_string d.kind) d.message

let to_json d =
  let open Trace in
  Json.Obj
    ([
       ("stage", Json.String (stage_to_string d.stage));
       ("kind", Json.String (kind_to_string d.kind));
       ("severity", Json.String (severity_to_string d.severity));
       ("message", Json.String d.message);
     ]
    @ (match d.file with Some f -> [ ("file", Json.String f) ] | None -> [])
    @ match d.line with Some l -> [ ("line", Json.Int l) ] | None -> [])

let of_json j =
  let open Trace in
  let str key =
    match Json.member key j with Some (Json.String s) -> Some s | _ -> None
  in
  match (Option.bind (str "stage") stage_of_string,
         Option.bind (str "kind") kind_of_string,
         str "severity", str "message") with
  | Some stage, Some kind, Some sev, Some message ->
    let severity = if sev = "warning" then Warning else Error in
    let file = str "file" in
    let line =
      match Json.member "line" j with Some (Json.Int l) -> Some l | _ -> None
    in
    Some { stage; kind; severity; file; line; message }
  | _ -> None

let has_errors ds = List.exists (fun d -> d.severity = Error) ds
