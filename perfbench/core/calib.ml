(* Machine-speed calibration.

   The benchmark runs on a shared virtual machine whose speed drifts
   with the load of the host: the same op stream runs up to 1.6 times
   faster in some stretches of minutes than in others, on every
   workload, while the hypervisor steals almost nothing.  A fixed kernel
   of the benchmark's own, timed next to the measured work, reads the
   machine's speed at that moment; every timed end-to-end metric is
   scaled by [reference_s] over the kernel's time, so it reads what the
   same run would have read on a machine where the kernel takes
   [reference_s].

   The kernel allocates nothing, so a change to the program or to its
   GC settings cannot change its time: it mixes a dependent walk of a
   2 MB ring (cache and memory latency), a sweep of a 512 kB float array
   (bandwidth) and an integer loop (the core). *)

(* A typical time of the kernel on the machine the benchmark was
   written on (2-vCPU Xeon virtual machine), so scaled times read close
   to what that machine shows. *)
let reference_s = 0.0037

(* Both buffers live outside the OCaml heap, so they add 2.5 MB to the
   resident set and nothing to the heap the GC walks. *)
module A1 = Bigarray.Array1

let ring =
  lazy
    (let n = 1 lsl 18 in
     let a = A1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through every slot *)
     let rng = Random.State.make [| 42 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let floats =
  lazy
    (let a = A1.create Bigarray.float64 Bigarray.c_layout (1 lsl 16) in
     A1.fill a 1.0;
     a)

let sink = ref 0

let kernel () =
  let ring = Lazy.force ring and floats = Lazy.force floats in
  let j = ref 0 in
  for _ = 1 to 25_000 do
    j := A1.unsafe_get ring !j
  done;
  for _ = 1 to 8 do
    for i = 0 to A1.dim floats - 1 do
      A1.unsafe_set floats i ((A1.unsafe_get floats i *. 0.5) +. 1.0)
    done
  done;
  let h = ref !j in
  for i = 1 to 300_000 do
    h := ((!h * 31) + i) land 0xffffff
  done;
  sink := !h + int_of_float floats.{7}

(* The kernel's time on [clock]. *)
let time clock =
  let t0 = clock () in
  kernel ();
  clock () -. t0

(* Scale for a time measured between two kernel readings [c0] and
   [c1]. *)
let scale c0 c1 = Bstat.ratio reference_s ((c0 +. c1) /. 2.0)
