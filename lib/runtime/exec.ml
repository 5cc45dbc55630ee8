(* One execution configuration: the three axes a run is executed under,
   as one immutable value.  The lowering travels as a field of the
   machine a run owns, and the backend is fixed when a store is built,
   so nothing here is global mutable state.  [of_env] is the only reader
   of the HPFC_FORCE_* variables (the CI hook that runs the whole suite
   under a forced setting). *)

type backend = Canonical | Distributed
type lower = P2p | Collective | Auto

type t = {
  backend : backend;
  par : bool;
  lower : lower;
}

(* The three axes by name: what a counter's declared class says may move
   it ([Machine.counter_class]). *)
type axis = Backend | Par | Lower

let agree axes a b =
  List.for_all
    (function
      | Backend -> a.backend = b.backend
      | Par -> a.par = b.par
      | Lower -> a.lower = b.lower)
    axes

let reference = { backend = Canonical; par = false; lower = P2p }

(* The parallel executor needs the distributed payload (replicated
   writes into a shared canonical payload would race). *)
let invalid e =
  if e.par && e.backend = Canonical then
    Some "the parallel executor needs distributed"
  else None

(* The oracle's matrix, in its historical order: the valid products. *)
let all =
  let ( let* ) l f = List.concat_map f l in
  let* backend = [ Canonical; Distributed ] in
  let* par = [ false; true ] in
  let* lower = [ P2p; Collective ] in
  let e = { backend; par; lower } in
  if invalid e = None then [ e ] else []

(* --- vocabulary ----------------------------------------------------------- *)

(* Each axis as (spelling, value) pairs; the first spelling of a value
   is the one [name] prints. *)
let backends = [ ("canonical", Canonical); ("distributed", Distributed) ]
let executors = [ ("seq", false); ("par", true) ]
let lowers = [ ("p2p", P2p); ("collective", Collective); ("auto", Auto) ]

(* [name] keeps the oracle's historical short spelling of the collective
   lowering; [lowers] (the CLI vocabulary) keeps the long one, and the
   parsers accept both. *)
let name_lowers = ("coll", Collective) :: lowers
let spelling table v = fst (List.find (fun (_, x) -> x = v) table)
let lower_name = spelling name_lowers

let name e =
  String.concat "/"
    [
      spelling backends e.backend;
      spelling executors e.par;
      lower_name e.lower;
    ]

let parse ~what table shown s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) table with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "invalid %s %S, expected one of %s" what s
         (String.concat " | " (List.map fst shown)))

let lower_of_string = parse ~what:"lowering" name_lowers lowers

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '/' s with
  | [ b; x; l ] -> (
    let* backend = parse ~what:"backend" backends backends b in
    let* par = parse ~what:"executor" executors executors x in
    let* lower = lower_of_string l in
    let e = { backend; par; lower } in
    match invalid e with
    | Some why -> Error (Printf.sprintf "%S: %s" s why)
    | None -> Ok e)
  | [ _; _; sc; _ ]
    when List.mem (String.lowercase_ascii (String.trim sc))
           [ "burst"; "stepped" ] ->
    (* a name from before the schedule axis was deleted *)
    Error
      (Printf.sprintf
         "invalid configuration %S: the schedule field was removed, every \
          run charges contention-free steps; expected backend/executor/lower"
         s)
  | _ ->
    Error
      (Printf.sprintf
         "invalid configuration %S, expected backend/executor/lower" s)

(* --- the environment ------------------------------------------------------ *)

let bad var v expected =
  Hpfc_base.Error.fail Invalid_config "%s=%S: expected %s" var v expected

(* Variables that once selected a configuration axis, each with what
   replaced it: an on-value is diagnosed, never silently ignored. *)
let removed =
  [
    ( "HPFC_FORCE_ASYNC",
      "the async executor was removed; HPFC_FORCE_PAR selects the \
       parallel executor" );
    ( "HPFC_FORCE_SCALAR",
      "the scalar datapath was removed; every run moves data through \
       compiled runs" );
    ( "HPFC_FORCE_STAGED",
      "the staged datapath was removed; a message stages exactly when its \
       buffers are not reachable from one address space" );
  ]

(* The one reader of the HPFC_FORCE_* variables: the configuration and
   the team size HPFC_FORCE_PAR asks for. *)
let read getenv =
  List.iter
    (fun (var, why) ->
      match getenv var with
      | None | Some "" | Some "0" -> ()
      | Some v -> Hpfc_base.Error.fail Invalid_config "%s=%S: %s" var v why)
    removed;
  let par, team =
    match getenv "HPFC_FORCE_PAR" with
    | None | Some "" | Some "0" -> (false, None)
    | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "auto" -> (true, None)
      | t -> (
        match int_of_string_opt t with
        | Some n when n > 0 -> (true, Some n)
        | Some _ | None ->
          bad "HPFC_FORCE_PAR" v
            "a positive integer, \"auto\", \"0\" or empty"))
  in
  let lower =
    match getenv "HPFC_FORCE_LOWER" with
    | None | Some "" | Some "0" -> P2p
    | Some v -> (
      match lower_of_string v with
      | Ok l -> l
      | Error _ ->
        bad "HPFC_FORCE_LOWER" v "p2p, collective, auto, \"0\" or empty")
  in
  ({ backend = (if par then Distributed else Canonical); par; lower }, team)

let of_env ?(getenv = Sys.getenv_opt) () = fst (read getenv)
let team_of_env ?(getenv = Sys.getenv_opt) () = snd (read getenv)

(* Memoized in an atomic rather than a [Lazy.t]: machines are created
   from several domains at once (serve tenants), and a racing re-read is
   harmless where a racing [Lazy.force] raises. *)
let from_env = Atomic.make None

let read_once () =
  match Atomic.get from_env with
  | Some r -> r
  | None ->
    let r = read Sys.getenv_opt in
    Atomic.set from_env (Some r);
    r

let default () = fst (read_once ())
let default_team () = snd (read_once ())
