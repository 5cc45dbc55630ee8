(** Compiler diagnostics.  Every user-visible failure in the pipeline is
    reported as an {!Hpf_error}; internal invariant violations use
    assertions instead. *)

type kind =
  | Ambiguous_mapping
      (** a reference is reachable under several mappings (language
          restriction 1, Fig. 5) *)
  | Missing_interface
      (** call to a routine without an explicit interface (restriction 2) *)
  | Transcriptive_mapping  (** forbidden by language restriction 3 *)
  | Multiple_leaving_mappings
      (** Fig. 21: the optimizations need a unique leaving mapping *)
  | Rank_mismatch
  | Unknown_entity
  | Invalid_directive
  | Parse_error
  | Runtime_fault
      (** a reference hit a copy that is not current — a compiler bug
          caught by the simulated runtime *)
  | Invalid_config
      (** an execution setting (a CLI flag or an [HPFC_FORCE_*]
          variable) names no valid value *)

val kind_to_string : kind -> string

exception Hpf_error of kind * string

(** [fail kind fmt ...] raises {!Hpf_error} with a formatted message. *)
val fail : kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Render any exception ({!Hpf_error} specially). *)
val to_string : exn -> string

val pp : Format.formatter -> exn -> unit
