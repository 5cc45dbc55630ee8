(** Differential oracle for generated programs.

    Runs a program through both pipelines under every configuration of
    {!Hpfc_runtime.Exec.all} (9 configurations, 18 runs), and
    cross-checks final values, modeled counters, and event traces.  See
    the implementation header for the exact invariant list. *)

type outcome =
  | Pass
  | Reject  (** front end refused the program (mapping ambiguity): discard *)
  | Fail of string  (** a divergence — the message names run and observable *)

(** Full differential matrix: both pipelines under every configuration. *)
val check_case : Gen.case -> outcome

(** Optimizer passes checked individually by {!check_pass}. *)
val pass_names : string list

(** One pass against the all-off baseline: semantics preserved, volume
    and remap count never increased, and messages never increased for
    the route-preserving passes (all but remove_useless — see
    oracle.ml on why route contraction may add messages). *)
val check_pass : string -> Gen.case -> outcome

(** Accepted programs run through an oracle so far (cumulative). *)
val programs_executed : unit -> int

(** Programs the front end refused so far. *)
val programs_rejected : unit -> int

(** Individual pipeline executions so far. *)
val pipeline_runs : unit -> int
