(* The calibration loop: how fast the host runs interpreter-like code
   right now.

   The benchmark's host shares its cores with other tenants' work, and
   the simulator's speed swings with it: the same op ran 1.6–2× slower
   for stretches of seconds to minutes, in every workload. A fixed
   loop of the same character as the simulator's dispatch — a 16-way
   match over a small register-machine program, data-dependent
   branches, byte loads and stores into a 64 KiB buffer — slows by the
   same factor at the same time, while a plain table walk tracks only
   about half of it. Timing this loop between ops and scaling each
   op's time by [reference /. loop time] gives the op's host time at a
   fixed host speed. The loop is the benchmark's own code: no change to
   the program under test changes its work, and it allocates nothing,
   so no collection of the program's garbage lands in it. *)

let steps = 1_000_000

(* The loop's time at the host speed figures are given at: the
   calibrated figures read as host time on a host where [measure ()]
   takes 4 ms, about what it takes on the 2-core machine the
   benchmark was built on when that machine is quiet. *)
let reference = 0.004

let prog =
  Array.init 256 (fun i ->
      ((i * 37) + (i lsr 3)) land 15 lor (((i * 13) land 7) lsl 4) lor (((i * 5) land 7) lsl 7))

let regs = Array.make 8 1
let mem = Bytes.make 65536 '\001'

(* The same work on every call: state is reset first. *)
let measure () =
  Array.fill regs 0 8 1;
  Bytes.fill mem 0 65536 '\001';
  let t0 = Unix.gettimeofday () in
  let pc = ref 0 in
  for _ = 1 to steps do
    let ins = prog.(!pc) in
    let a = (ins lsr 4) land 7 and b = (ins lsr 7) land 7 in
    (match ins land 15 with
    | 0 -> regs.(a) <- regs.(a) + regs.(b)
    | 1 -> regs.(a) <- regs.(a) - regs.(b)
    | 2 -> regs.(a) <- regs.(a) lxor (regs.(b) lsl 1)
    | 3 -> regs.(a) <- (regs.(a) * 31) land 0xffffff
    | 4 -> regs.(a) <- Char.code (Bytes.unsafe_get mem (regs.(b) land 65535))
    | 5 -> Bytes.unsafe_set mem (regs.(a) land 65535) (Char.unsafe_chr (regs.(b) land 255))
    | 6 -> if regs.(a) land 1 = 0 then pc := (!pc + regs.(b)) land 255
    | 7 -> regs.(a) <- regs.(a) lsr 1
    | 8 -> regs.(a) <- regs.(b)
    | 9 -> regs.(a) <- regs.(a) land regs.(b) lor 1
    | 10 -> if regs.(a) > regs.(b) then pc := (!pc + 7) land 255
    | 11 -> regs.(a) <- regs.(a) + 1
    | 12 -> regs.(b) <- regs.(a) + (regs.(b) land 0xffff)
    | 13 -> regs.(a) <- Char.code (Bytes.unsafe_get mem ((regs.(a) * 4099) land 65535))
    | 14 -> if regs.(b) land 3 = 0 then pc := regs.(a) land 255
    | _ -> regs.(a) <- regs.(a) lor (regs.(b) land 0xff));
    pc := (!pc + 1) land 255
  done;
  Unix.gettimeofday () -. t0
