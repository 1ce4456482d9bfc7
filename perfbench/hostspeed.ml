(* Host-speed reference. The benchmark runs on shared machines whose
   speed changes by up to ~2x over seconds to minutes as other tenants
   load the same physical cores. A fixed reference loop — this file's
   own code, which no change to the library can speed up or slow down —
   is sampled at every mark of a timed sweep, so that a measured time can
   be scaled to what it would have been at a fixed host speed. The loop
   is shaped like the campaign hot path: closure-threaded dispatch over a
   small program, 64-bit loads and stores into a 256 KiB byte memory,
   short-lived boxed values, and a block copy. *)

let memory = Bytes.make (1 lsl 18) '\001'
let scratch = Bytes.make 4096 '\000'
let regs = Array.make 8 1L

let program : (unit -> unit) array =
  let addr r = Int64.to_int regs.(r) land ((1 lsl 18) - 8) in
  [|
    (fun () -> regs.(0) <- Bytes.get_int64_le memory (addr 1));
    (fun () -> regs.(2) <- Int64.add regs.(0) regs.(3));
    (fun () ->
      regs.(2) <-
        Int64.logxor (Int64.mul regs.(2) 0x9E3779B97F4A7C15L)
          (Int64.shift_right_logical regs.(2) 29));
    (fun () -> Bytes.set_int64_le memory (addr 4) regs.(2));
    (fun () -> regs.(3) <- Int64.add regs.(3) (Int64.of_float (Int64.to_float regs.(2) *. 0.5)));
    (fun () -> regs.(1) <- Int64.add regs.(1) 4104L);
    (fun () -> regs.(4) <- Int64.add regs.(4) regs.(1));
  |]

(* One pass: [steps] dispatched operations and one 4 KiB block copy. *)
let steps = 2_000

let run_once () =
  let n = Array.length program in
  for i = 0 to steps - 1 do
    (Array.unsafe_get program (i mod n)) ()
  done;
  Bytes.blit memory (Int64.to_int regs.(1) land ((1 lsl 18) - 4096)) scratch 0 4096

(* Passes per second over about [window] seconds. *)
let window = 0.001

let speed () =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and t = ref t0 in
  while !t -. t0 < window do
    run_once ();
    incr n;
    t := Unix.gettimeofday ()
  done;
  float_of_int !n /. (!t -. t0)

(* The speed, in passes per second, that measured times are scaled to:
   about the loop's speed on the 2-core machine the baselines were
   measured on, when that machine was lightly loaded. *)
let nominal = 40_000.0

(* [scale dt ~before ~after] is [dt], measured between two speed
   samples, scaled to the nominal host speed. *)
let scale dt ~before ~after = dt *. ((before +. after) /. 2.0) /. nominal
