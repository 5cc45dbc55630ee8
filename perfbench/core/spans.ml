(* In-memory span recorder of the traced run.

   A span is (name, start, end, parent, op id): the benchmark opens one
   around each call it makes into a layer's public function, so spans
   nest the way the calls do.  Spans stay in memory (struct-of-arrays,
   no per-span allocation beyond growth) and are written out as JSON
   lines once the run has ended.  A layer's self time is its span's
   duration minus the durations of its direct children. *)

type t = {
  mutable names : string array;
  mutable parent : int array;  (* -1: a root span *)
  mutable op : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
}

let create () =
  let c = 4096 in
  {
    names = Array.make c "";
    parent = Array.make c (-1);
    op = Array.make c 0;
    t0 = Array.make c 0.0;
    t1 = Array.make c 0.0;
    n = 0;
  }

let grow t =
  let c = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make c fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.parent <- ext t.parent (-1);
  t.op <- ext t.op 0;
  t.t0 <- ext t.t0 0.0;
  t.t1 <- ext t.t1 0.0

(* Record a span whose bounds are already known (e.g. stamped by another
   domain); returns its id. *)
let add t ~name ~parent ~op ~t0 ~t1 =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.names.(id) <- name;
  t.parent.(id) <- parent;
  t.op.(id) <- op;
  t.t0.(id) <- t0;
  t.t1.(id) <- t1;
  t.n <- id + 1;
  id

(* Open a span now; close it with [stop]. *)
let start t ~name ~parent ~op =
  let now = Bstat.now () in
  add t ~name ~parent ~op ~t0:now ~t1:now

let stop t id = t.t1.(id) <- Bstat.now ()

(* [with_span t ~name ~parent ~op f] runs [f id] inside a span, closing
   it even when [f] raises. *)
let with_span t ~name ~parent ~op f =
  let id = start t ~name ~parent ~op in
  match f id with
  | r ->
    stop t id;
    r
  | exception e ->
    stop t id;
    raise e

let duration t id = t.t1.(id) -. t.t0.(id)

(* Self time of every span: duration minus its children's durations. *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for id = 0 to t.n - 1 do
    let p = t.parent.(id) in
    if p >= 0 then self.(p) <- self.(p) -. duration t id
  done;
  self

(* Total self seconds per span name. *)
let self_by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for id = 0 to t.n - 1 do
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl t.names.(id)) in
    Hashtbl.replace tbl t.names.(id) (prev +. self.(id))
  done;
  tbl

let self_of tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* One JSON object per span, times relative to the first span's start. *)
let write t path =
  let oc = open_out path in
  let base = if t.n = 0 then 0.0 else t.t0.(0) in
  for id = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%s,\"parent\":%d,\"op\":%d,\"start_s\":%.9f,\
       \"end_s\":%.9f}\n"
      id (Bstat.json_str t.names.(id)) t.parent.(id) t.op.(id)
      (t.t0.(id) -. base) (t.t1.(id) -. base)
  done;
  close_out oc
