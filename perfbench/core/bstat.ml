(* Small measurement helpers shared by the workloads: the two clocks, a
   growable float vector for per-op samples, quantiles, resident-memory
   readings and the JSON number format of the result line. *)

(* Wall clock: per-op times, spans and the run's time budget. *)
let now = Unix.gettimeofday

(* CPU time of the whole process so far: user plus system time of all
   its domains, in seconds (getrusage, microsecond resolution).  It
   leaves out time the hypervisor steals and time other processes hold
   the cores.  Set-up is timed on it; per-op times are not, since the
   kernel brings another domain's time up to date only when that domain
   is descheduled or at a timer tick, so a reading taken while a worker
   domain runs lags by up to a tick. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Growable vector of floats (per-op latencies, per-op counters). *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
  let sum v =
    let s = ref 0.0 in
    for i = 0 to v.n - 1 do
      s := !s +. v.a.(i)
    done;
    !s
end

(* Nearest-rank quantile of an unsorted sample; 0 on an empty one. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5
let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Interquartile mean: the mean of the middle half of the sorted sample
   (all of it below four values).  Robust to a stalled window like a
   median, but it averages over the faster and slower stretches a run
   goes through instead of landing on one of them. *)
let iq_mean xs =
  let n = Array.length xs in
  if n < 4 then mean xs
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    mean (Array.sub s (n / 4) (n - (2 * (n / 4))))
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A field of /proc/self/status in kB, 0 when unavailable. *)
let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let prefix = field ^ ":" in
    let r = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.starts_with ~prefix l then
           Scanf.sscanf
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
             " %d" (fun kb -> r := kb)
       done
     with End_of_file -> ());
    close_in ic;
    !r

(* Jiffies the hypervisor stole from this machine's CPUs and all
   jiffies so far (the "cpu" line of /proc/stat); (0, 0) when
   unavailable. *)
let cpu_steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    close_in ic;
    let fields =
      List.filter_map int_of_string_opt
        (List.filter (( <> ) "") (String.split_on_char ' ' l))
    in
    (* user nice system idle iowait irq softirq steal; guest time is
       already counted in user *)
    let fields = List.filteri (fun i _ -> i < 8) fields in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, List.fold_left ( + ) 0 fields)

(* Peak resident set of the process so far, in MB. *)
let peak_rss_mb () = float_of_int (proc_status_kb "VmHWM") /. 1024.0

(* A measured phase reads [peak_rss_mb] once it has done [rss_ops] ops,
   or at its end if it does fewer: the memory a fixed amount of work
   needs.  Read at the end of a timed phase it would grow with the op
   count, and so with the machine's speed, wherever per-op records are
   kept (the service keeps every request's latency). *)
let rss_ops = 10_000

(* [rss_at r n] records the reading in [r] when [n] ops are done. *)
let rss_at r n = if n = rss_ops then r := peak_rss_mb ()
let rss_final r = if !r > 0.0 then !r else peak_rss_mb ()

(* JSON number with every digit kept; non-finite values (never expected)
   become 0 so the line stays valid JSON. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
