(** Structured compiler diagnostics.

    Every failure mode of the synthesis pipeline — a parse error, a
    circuit that does not fit the device, an unroutable CNOT, an
    exhausted resource budget, a violated pass contract, an unexpected
    exception — is reported as one value of {!t}: the pipeline stage it
    came from, the kind of failure, a severity, an optional source
    location (file and line, carried up from the four front-end
    parsers), and a human-readable message.

    [Compiler.compile_checked] returns these instead of raising, so a
    driver (the [qsc] CLI, the fault-injection tests, a batch runner)
    can render, aggregate, or recover from failures without ever
    seeing a raw OCaml exception. *)

(** The pipeline stage a diagnostic originates from.  [Driver] covers
    everything outside the compile proper: file dispatch, CLI argument
    handling, batch orchestration. *)
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

(** [stage_to_string s] is the stable kebab-case name used in trace
    spans and JSON ("front-end", "post-optimize", ...). *)
val stage_to_string : stage -> string

val stage_of_string : string -> stage option

(** What went wrong. *)
type kind =
  | Parse  (** malformed input text; location points at the offence *)
  | Io  (** the input file could not be read *)
  | Unsupported
      (** unknown extension, gate, or construct; or compile options
          that mean nothing, such as a non-finite cost weight *)
  | Capacity  (** the circuit does not fit the target register *)
  | Unroutable  (** no SWAP path exists (disconnected coupling map) *)
  | Budget_exhausted  (** a per-stage resource budget ran out *)
  | Invalid_gate  (** a corrupt gate stream: non-finite angle,
                      out-of-range wire *)
  | Contract_violation  (** a pass broke its postcondition (strict mode) *)
  | Verification_failed  (** the output provably differs from the input *)
  | Lint_finding  (** a lint rule fired (see {!Lint.to_diagnostic}) *)
  | Protocol
      (** a malformed [qsynth-serve/v1] frame: unparseable JSON, an
          unknown verb, a wrongly-typed or missing field (see
          {!Serve}) *)
  | Internal  (** an unexpected exception; a bug, but a reported one *)

type severity = Error | Warning

type t = {
  stage : stage;
  kind : kind;
  severity : severity;
  file : string option;
  line : int option;  (** 1-based; parsers report end-of-input as the
                          last line of the file *)
  message : string;
}

(** [error ?file ?line ~stage ~kind message] is an [Error]-severity
    diagnostic. *)
val error : ?file:string -> ?line:int -> stage:stage -> kind:kind -> string -> t

val warning :
  ?file:string -> ?line:int -> stage:stage -> kind:kind -> string -> t

(** [to_string d] renders ["file:line: [stage] kind: message"], with the
    location prefix dropped when absent — the [file:line: message] shape
    compilers conventionally print and editors parse. *)
val to_string : t -> string

(** [to_json d] is an object with ["stage"], ["kind"], ["severity"],
    ["message"] and, when present, ["file"] and ["line"] members. *)
val to_json : t -> Trace.Json.t

(** [of_json j] inverts {!to_json}; [None] on malformed input. *)
val of_json : Trace.Json.t -> t option

(** [has_errors ds] holds when any diagnostic is [Error]-severity. *)
val has_errors : t list -> bool
