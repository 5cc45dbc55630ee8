(* [Buf.copy_run] in bytecode: the stub receives its arguments as an
   array of tagged values, so this checks the bytecode entry point
   untags and forwards every one of them.  Compares against a
   per-element copy over distinct buffers, covers both overlap
   directions on one buffer, and an out-of-bounds run. *)

open Hpfc_runtime

let reference src spos sstride dst dpos dstride ~len ~count =
  for i = 0 to count - 1 do
    for j = 0 to len - 1 do
      Buf.set dst
        (dpos + (i * dstride) + j)
        (Buf.get src (spos + (i * sstride) + j))
    done
  done

let fresh n = Buf.of_array (Array.init n float_of_int)

let check name expected got =
  if Buf.to_array expected <> Buf.to_array got then begin
    Printf.eprintf "kernel_byte: %s: mismatch\n" name;
    exit 1
  end

let () =
  let cases =
    [
      (0, 4, 1, 2, 3, 5);
      (11, -3, 20, 3, 2, 4);
      (1, 0, 0, 6, 1, 3);
      (5, 7, 9, -2, 2, 3);
    ]
  in
  List.iter
    (fun (spos, sstride, dpos, dstride, len, count) ->
      let src = fresh 32 in
      let got = Buf.create 32 and expected = Buf.create 32 in
      Buf.copy_run src spos sstride got dpos dstride ~len ~count;
      reference src spos sstride expected dpos dstride ~len ~count;
      check
        (Printf.sprintf "run %d/%d -> %d/%d, %d x %d" spos sstride dpos dstride
           len count)
        expected got)
    cases;
  (* one buffer: gather (forward only) and scatter (backward only) *)
  let aliased name spos sstride dpos dstride ~len ~count =
    let b = fresh 32 in
    let expected = fresh 32 in
    reference (fresh 32) spos sstride expected dpos dstride ~len ~count;
    Buf.copy_run b spos sstride b dpos dstride ~len ~count;
    check name expected b
  in
  aliased "gather" 1 2 0 1 ~len:1 ~count:16;
  aliased "scatter" 0 1 1 2 ~len:1 ~count:16;
  aliased "shift right" 0 4 2 4 ~len:4 ~count:7;
  let dst = Buf.create 8 in
  match Buf.copy_run (fresh 8) 0 3 dst 0 1 ~len:2 ~count:4 with
  | () ->
    prerr_endline "kernel_byte: out-of-bounds run accepted";
    exit 1
  | exception Invalid_argument _ ->
    if Buf.to_array dst <> Array.make 8 0.0 then begin
      prerr_endline "kernel_byte: out-of-bounds run wrote";
      exit 1
    end
