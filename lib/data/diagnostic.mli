(** Structured parse/ingestion diagnostics.

    Real-world corpora are messy — the paper's whole premise is that
    shapes are inferred from {e representative} samples precisely because
    documents deviate from any schema — so a production ingestion
    pipeline must be able to say exactly {e which} document broke,
    {e where}, and {e why}, and (under an error budget) keep going.

    This module is the one error currency shared by the [Json], [Xml]
    and [Csv] parsers and by the inference engine,
    [Fsdata_core.Infer.run]. The three legacy
    per-format [Parse_error] exceptions still exist as thin compatibility
    wrappers around a diagnostic; new code should consume diagnostics. *)

type format = Json | Xml | Csv

type severity = Error | Warning

type t = {
  format : format;
  line : int;
      (** 1-based line of the error; 0 for a fault that has no position
          in the text, such as a sample whose inference failed *)
  column : int;  (** 1-based column of the error; 0 when unknown *)
  index : int option;
      (** 0-based global index of the offending document/sample within
          the corpus, when the error arose while ingesting a corpus *)
  message : string;
  severity : severity;
}

exception Parse_error of t
(** The exception the parsers raise internally. The per-format public
    entry points convert it to their legacy exception ([Json.Parse_error]
    etc.) so existing handlers keep working; the [*_diag] entry points
    and the inference engine hand the diagnostic over directly. *)

val make :
  ?index:int -> ?severity:severity -> format:format -> line:int -> column:int
  -> string -> t

val error : format:format -> line:int -> column:int
  -> ('a, unit, string, 'b) format4 -> 'a
(** [error ~format ~line ~column fmt ...] raises {!Parse_error} with the
    formatted message. *)

val with_index : int -> t -> t
(** Attribute the diagnostic to a global sample index. *)

val format_name : format -> string
(** ["json"], ["xml"] or ["csv"]. *)

val severity_name : severity -> string

val to_string : t -> string
(** The legacy one-line rendering, e.g.
    ["JSON parse error at line 3, column 10: unterminated string"]. A
    known sample index is appended as [" (document 7)"]. *)

val message_of : t -> string
(** {!to_string} without the index suffix — byte-identical to what the
    strict pipeline printed before diagnostics existed. A diagnostic
    without a line renders as its message alone. *)

val to_json : t -> Data_value.t
(** A machine-readable rendering (a record with [format], [index],
    [line], [column], [severity], [message] fields) for quarantine
    reports. *)

val pp : Format.formatter -> t -> unit

(** {1 Error budgets}

    How many malformed samples an ingestion run may quarantine before it
    fails as a whole. [Strict] (the default everywhere) refuses the
    first fault, exactly as the pre-diagnostic pipeline did. *)

type budget =
  | Strict  (** fail on the first malformed sample (the default) *)
  | Count of int  (** tolerate up to N malformed samples *)
  | Percent of float  (** tolerate up to N% of the corpus, 0 <= N <= 100 *)

val budget_of_string : string -> (budget, string) result
(** ["0"] is [Strict]; ["N"] is [Count N]; ["N%"] is [Percent N]. *)

val budget_to_string : budget -> string

val allows : budget -> errors:int -> total:int -> bool
(** Is [errors] quarantined samples out of [total] seen within budget?
    [Percent p] allows [errors <= p/100 * total]. *)
