(* The benchmark's timed-phase clock.

   Every latency, span and phase duration is read from one monotonic
   clock (CLOCK_MONOTONIC via bechamel's stub), in microseconds.
   Correctness checks that must run in the middle of a timed phase —
   capturing the committed projection just before a crash, decoding
   the checkpoint a recovery used — run under [outside]: their wall
   time is added to [paused], and [now] subtracts it, so the timed
   phase (and every script latency spanning the check) never sees
   them. *)

let raw_us () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3
let paused = ref 0.
let now () = raw_us () -. !paused

(* The program's heap: [heap_peak] is the largest major heap seen
   between [start_phase] and [end_phase], sampled at the end of every
   major collection, on entry to [outside] (before a check run there
   allocates) and when the phase ends.  The set-up before a timed phase
   and the gates after it are never seen. *)
let heap_peak = ref 0
let in_phase = ref false

let sample_heap () =
  if !in_phase then heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words

let (_ : Gc.alarm) = Gc.create_alarm sample_heap

let start_phase () =
  heap_peak := 0;
  in_phase := true

let end_phase () =
  sample_heap ();
  in_phase := false

let outside f =
  sample_heap ();
  let t0 = raw_us () in
  Fun.protect ~finally:(fun () -> paused := !paused +. (raw_us () -. t0)) f

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
