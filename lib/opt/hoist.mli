(** Loop-invariant remapping motion (Sec. 4.3, Fig. 16 -> 17).

    A remapping statement ending a loop body moves out of the loop when
    its leaving mappings are already among those reaching the loop head
    along loop-entry paths (so the hoisted statement is a run-time no-op
    on the zero-trip path — the paper's t < 1 caveat).  After the motion,
    the remapping heading the body costs nothing after the first
    iteration thanks to the run-time status test.

    A syntactic pre-check comes first: a routine with no loop body ending
    in a remapping (at any depth, in either branch of an IF) is returned
    as is, without building a graph.  Otherwise each move is checked on
    the graph of the moved routine, and that graph serves the next search.
    A move is kept only if no reference becomes ambiguous and no new
    route appears: every data-moving [(array, source layout, target
    layout)] of a reaching x leaving pair at a non-exit vertex must
    already occur in the graph before the move.  So hoisting never
    changes which layouts a remapping moves data between. *)

(** Zero-trip safety of hoisting the trailing statement [s] of the DO with
    statement id [do_sid] (exposed for testing). *)
val zero_trip_safe :
  Hpfc_remap.Graph.t -> do_sid:int -> Hpfc_lang.Ast.stmt -> bool

(** Is every data-moving route of [after] already a route of [before]?
    (The rule a move must pass; exposed for testing.) *)
val keeps_routes :
  before:Hpfc_remap.Graph.t -> after:Hpfc_remap.Graph.t -> bool

(** Iterate hoisting to fixpoint; returns the transformed routine, the
    number of statements moved, and its remapping graph when one was
    built ([None] when the pre-check found nothing to move).  The graph
    is exactly what [Construct.build] gives on the returned routine; the
    caller may consume it (e.g. [Remove_useless.run] mutates it).
    @raise Hpfc_base.Error.Hpf_error as [Construct.build] does on the
    input routine, when a graph is built. *)
val run_graph :
  ?default_nprocs:int ->
  Hpfc_lang.Ast.routine ->
  Hpfc_lang.Ast.routine * int * Hpfc_remap.Graph.t option

(** [run_graph] without the graph.  A routine with nothing to move comes
    back physically equal. *)
val run : ?default_nprocs:int -> Hpfc_lang.Ast.routine -> Hpfc_lang.Ast.routine * int
