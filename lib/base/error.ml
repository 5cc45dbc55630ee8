(* Compiler diagnostics.  Every user-visible failure in the pipeline is
   reported through [Hpf_error]; internal invariant violations use
   assertions instead. *)

type kind =
  | Ambiguous_mapping  (* reference reachable under several mappings *)
  | Missing_interface  (* call to a routine with no explicit interface *)
  | Transcriptive_mapping  (* forbidden by language restriction 3 *)
  | Multiple_leaving_mappings  (* Fig. 21: optimizations need uniqueness *)
  | Rank_mismatch
  | Unknown_entity
  | Invalid_directive
  | Parse_error
  | Runtime_fault  (* reference to a copy that is not current/valid *)
  | Invalid_config  (* an execution setting names no valid value *)

let kind_to_string = function
  | Ambiguous_mapping -> "ambiguous mapping"
  | Missing_interface -> "missing interface"
  | Transcriptive_mapping -> "transcriptive mapping"
  | Multiple_leaving_mappings -> "multiple leaving mappings"
  | Rank_mismatch -> "rank mismatch"
  | Unknown_entity -> "unknown entity"
  | Invalid_directive -> "invalid directive"
  | Parse_error -> "parse error"
  | Runtime_fault -> "runtime fault"
  | Invalid_config -> "invalid configuration"

exception Hpf_error of kind * string

let fail kind fmt = Fmt.kstr (fun msg -> raise (Hpf_error (kind, msg))) fmt

let to_string = function
  | Hpf_error (kind, msg) -> Fmt.str "%s: %s" (kind_to_string kind) msg
  | exn -> Printexc.to_string exn

let pp ppf exn = Fmt.string ppf (to_string exn)
