(* One execution configuration: the five axes a run is executed under,
   as one immutable value.  The datapath and the lowering travel as
   fields of the machine a run owns, the schedule is the machine's
   accounting mode, and the backend is fixed when a store is built, so
   nothing here is global mutable state.  [of_env] is the only
   reader of the HPFC_FORCE_* variables (the CI hook that runs the whole
   suite under a forced setting). *)

type backend = Canonical | Distributed
type datapath = Zero_copy | Staged | Scalar
type sched = Burst | Stepped
type lower = P2p | Collective | Auto

type t = {
  backend : backend;
  par : bool;
  datapath : datapath;
  sched : sched;
  lower : lower;
}

let reference =
  {
    backend = Canonical;
    par = false;
    datapath = Zero_copy;
    sched = Burst;
    lower = P2p;
  }

(* The parallel executor needs the distributed payload (replicated
   writes into a shared canonical payload would race). *)
let invalid e =
  if e.par && e.backend = Canonical then
    Some "the parallel executor needs distributed"
  else None

(* The oracle's matrix, in its historical order: the valid products,
   less burst/collective (which would duplicate burst/p2p). *)
let all =
  let ( let* ) l f = List.concat_map f l in
  let* backend = [ Canonical; Distributed ] in
  let* par = [ false; true ] in
  let* datapath = [ Zero_copy; Staged; Scalar ] in
  let* sched = [ Burst; Stepped ] in
  let* lower = [ P2p; Collective ] in
  let e = { backend; par; datapath; sched; lower } in
  if invalid e = None && not (lower = Collective && sched = Burst) then [ e ]
  else []

(* --- vocabulary ----------------------------------------------------------- *)

(* Each axis as (spelling, value) pairs; the first spelling of a value
   is the one [name] prints. *)
let backends = [ ("canonical", Canonical); ("distributed", Distributed) ]
let executors = [ ("seq", false); ("par", true) ]

let datapaths =
  [ ("zerocopy", Zero_copy); ("staged", Staged); ("scalar", Scalar) ]

let scheds = [ ("burst", Burst); ("stepped", Stepped) ]
let lowers = [ ("p2p", P2p); ("collective", Collective); ("auto", Auto) ]

(* [name] keeps the oracle's historical short spelling of the collective
   lowering; [lowers] (the CLI vocabulary) keeps the long one, and the
   parsers accept both. *)
let name_lowers = ("coll", Collective) :: lowers
let spelling table v = fst (List.find (fun (_, x) -> x = v) table)
let sched_name = spelling scheds
let lower_name = spelling name_lowers

let name e =
  String.concat "/"
    [
      spelling backends e.backend;
      spelling executors e.par;
      spelling datapaths e.datapath;
      sched_name e.sched;
      lower_name e.lower;
    ]

let parse ~what table shown s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) table with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "invalid %s %S, expected one of %s" what s
         (String.concat " | " (List.map fst shown)))

let sched_of_string = parse ~what:"schedule" scheds scheds
let lower_of_string = parse ~what:"lowering" name_lowers lowers

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '/' s with
  | [ b; x; d; sc; l ] -> (
    let* backend = parse ~what:"backend" backends backends b in
    let* par = parse ~what:"executor" executors executors x in
    let* datapath = parse ~what:"datapath" datapaths datapaths d in
    let* sched = sched_of_string sc in
    let* lower = lower_of_string l in
    let e = { backend; par; datapath; sched; lower } in
    match invalid e with
    | Some why -> Error (Printf.sprintf "%S: %s" s why)
    | None -> Ok e)
  | _ ->
    Error
      (Printf.sprintf
         "invalid configuration %S, expected \
          backend/executor/datapath/sched/lower"
         s)

(* --- the environment ------------------------------------------------------ *)

let bad var v expected =
  Hpfc_base.Error.fail Invalid_config "%s=%S: expected %s" var v expected

let flag getenv var =
  match getenv var with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* The one reader of the HPFC_FORCE_* variables: the configuration and
   the team size HPFC_FORCE_PAR asks for. *)
let read getenv =
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
  (match getenv "HPFC_FORCE_ASYNC" with
  | None | Some "" | Some "0" -> ()
  | Some v ->
    Hpfc_base.Error.fail Invalid_config
      "HPFC_FORCE_ASYNC=%S: the async executor was removed; \
       HPFC_FORCE_PAR selects the parallel executor"
      v);
  let datapath =
    match
      (flag getenv "HPFC_FORCE_SCALAR", flag getenv "HPFC_FORCE_STAGED")
    with
    | true, true ->
      Hpfc_base.Error.fail Invalid_config
        "HPFC_FORCE_SCALAR and HPFC_FORCE_STAGED are both set: one run has \
         one datapath, set at most one of them"
    | true, false -> Scalar
    | false, true -> Staged
    | false, false -> Zero_copy
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
  ( {
      backend = (if par then Distributed else Canonical);
      par;
      datapath;
      sched = Burst;
      lower;
    },
    team )

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
