(* The host's speed, measured by a fixed reference loop.

   The machine is a few virtual CPUs of a shared host, and how fast it
   runs allocation-heavy OCaml drifts by up to 1.5x over minutes as
   other tenants come and go.  Between rounds the benchmark runs
   [loop] in a fresh process of its own (this executable with
   [--reference]) and compares its time with [nominal_us].  The loop is
   the benchmark's own fixed code, it shares nothing with the program
   under test (not even a heap), so a change to the program cannot move
   it; only the host can.  {!Perfbench} divides every duration of a
   round by the slowdown sampled around it. *)

(* Short-lived small blocks, hashing and list walks over a working set
   of a few hundred kilobytes: the profile of the program's own
   hot paths. *)
let loop () =
  let h = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 0 to 39_999 do
    let k = (i * 7919) land 4095 in
    let l = match Hashtbl.find_opt h k with Some l -> l | None -> [] in
    Hashtbl.replace h k (i :: (if List.length l > 4 then [] else l));
    acc := !acc + List.fold_left ( + ) 0 l
  done;
  !acc

let repeats = 3

(* [--reference]: the fastest of [repeats] timings of [loop], in µs. *)
let measure () =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Clock.raw_us () in
    ignore (Sys.opaque_identity (loop ()));
    best := Float.min !best (Clock.raw_us () -. t0)
  done;
  !best

(* What [measure] reads on a quiet host: the 2 vCPU Xeon VM the bounds
   were set on.  It only scales the reported figures. *)
let nominal_us = 7500.

(* How much slower than nominal the host runs right now: [measure] in a
   child process, over [nominal_us].  The child is waited for. *)
let slowdown () =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--reference" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some us when us > 0. -> Ok (us /. nominal_us)
  | _ -> Error "the reference loop failed"
