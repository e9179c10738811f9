(* The four workloads: their set-up, their operations, and the checks
   on every operation's output.

   Each workload is prepared by [setup] (compile, generate, bring
   systems to mid-run), then [reference] computes, untimed, what the
   checks need that set-up does not give, then [round] runs one whole
   round of the same operations and records each one in a [tally]. An
   operation fails when its outcome or its output does not pass the
   workload's check. *)

module System = Hipstr.System
module Compile = Hipstr_compiler.Compile
module Fatbin = Hipstr_compiler.Fatbin
module Workloads = Hipstr_workloads.Workloads
module Obs = Hipstr_obs.Obs
module Snapshot = Hipstr_snapshot.Snapshot
module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet
module Process = Hipstr_cmp.Process
module Cmp = Hipstr_cmp.Cmp
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Desc = Hipstr_isa.Desc
module Config = Hipstr_psr.Config
module Code_cache = Hipstr_psr.Code_cache

(* One timed call: [sm_ops] ops (one, or a fleet round's connections)
   that retired [sm_instrs] guest instructions in [sm_secs] host
   seconds, while the calibration loop took [sm_cal] seconds. Calls
   with the same label do the same work every round. *)
type sample = {
  sm_label : string;
  sm_secs : float;
  sm_cal : float;
  sm_ops : int;
  sm_instrs : int;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : sample list;
  mutable last_cal : float;  (** the latest calibration-loop time *)
  counters : (string, int) Hashtbl.t;  (** obs counters summed over ops (traced runs) *)
  mutable first_failures : string list;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    samples = [];
    last_cal = nan;
    counters = Hashtbl.create 64;
    first_failures = [];
  }

(* Guest-side results of a [Fleet.run], kept for the reference counts. *)
type fleet_stats = { fs_waves : int; fs_p99_cycles : float; fs_completed_per_mcycle : float }

type prepared = {
  p_fatbins : Fatbin.t list;  (** what set-up compiled, for the fingerprint probe *)
  p_reference : unit -> unit;
  p_round : tally -> unit;
  p_fleet : fleet_stats option ref;  (** serve: the last round's guest-side figures *)
}

type workload = {
  w_name : string;
  w_min_ops : int;  (** a run holds at least this many ops, and three rounds *)
  w_setup_reps : int;  (** set-ups per run; setup_s is their median *)
  w_scaled : bool;
      (** op times are scaled to the reference host speed ([Calib]):
          true where an op is mostly interpretation, which the
          calibration loop tracks; false where it is mostly arena
          page faults, which it does not. Set-up is always scaled. *)
  w_warm : unit -> unit;  (** untimed, before the first set-up *)
  w_setup : seed:int -> perturb:bool -> unit -> prepared;
}

let now = Unix.gettimeofday

(* A perturbed reference value: the self-test flips this on to show
   that every check can fail. *)
let bump perturb xs = if perturb then List.map succ xs else xs

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.first_failures < 5 then t.first_failures <- msg :: t.first_failures

let add_counters t obs =
  if !Spans.on then
    List.iter
      (fun (k, v) ->
        Hashtbl.replace t.counters k (v + Option.value ~default:0 (Hashtbl.find_opt t.counters k)))
      (Obs.snapshot obs).Obs.Metrics.snap_counters

(* Time [f] between two runs of the calibration loop; the one after
   is also the one before the next call. Returns the result, the
   call's host seconds and the mean calibration time around it. *)
let calibrated t f =
  if Float.is_nan t.last_cal then t.last_cal <- Calib.measure ();
  let t0 = now () in
  let v = f () in
  let secs = now () -. t0 in
  let c = Calib.measure () in
  let cal = (t.last_cal +. c) /. 2. in
  t.last_cal <- c;
  (v, secs, cal)

let record t ~label ~secs ~cal ~ops ~instrs =
  t.attempted <- t.attempted + ops;
  t.samples <-
    { sm_label = label; sm_secs = secs; sm_cal = cal; sm_ops = ops; sm_instrs = instrs }
    :: t.samples

(* One timed operation; [instrs] reads the guest instructions it
   retired off its result. *)
let op t label ~instrs f =
  let v, secs, cal = calibrated t (fun () -> Spans.span ~label "op" f) in
  record t ~label ~secs ~cal ~ops:1 ~instrs:(instrs v);
  v

(* --- calls into the layers, each under its span -------------------- *)

let compile src = Spans.span "compiler.compile" (fun () -> Compile.to_fatbin src)

let mode_index = function System.Native -> 0 | System.Psr_only -> 1 | System.Hipstr -> 2
let mode_name = function System.Native -> "native" | System.Psr_only -> "psr" | System.Hipstr -> "hipstr"
let modes = [ System.Native; System.Psr_only; System.Hipstr ]
let isas = [ Desc.Cisc; Desc.Risc ]
let isa_name = function Desc.Cisc -> "cisc" | Desc.Risc -> "risc"

let boot ?cfg ~obs ~seed ~isa ~mode fb =
  Spans.span "core.boot" (fun () -> System.of_fatbin ~obs ?cfg ~seed ~start_isa:isa ~mode fb)

let run_sys sys ~fuel =
  Spans.span "core.run" (fun () ->
      let i0 = System.instructions sys and w0 = Gc.minor_words () in
      let o = System.run sys ~fuel in
      Spans.note "instrs" (System.instructions sys - i0);
      Spans.note "minor_words" (int_of_float (Gc.minor_words () -. w0));
      Spans.note "mode" (mode_index (System.mode sys));
      o)

let outcome_string = function
  | System.Finished c -> Printf.sprintf "exit %d" c
  | System.Shell_spawned -> "shell"
  | System.Killed why -> "killed: " ^ why
  | System.Out_of_fuel -> "out of fuel"

let show xs = String.concat " " (List.map string_of_int xs)

(* --- spec and kernels: one program, one mode, one start ISA -------- *)

(* One op: a fresh enabled obs context, [System.of_fatbin], then
   [System.run] to exit, as [hipstr run] does. *)
let run_program t ~label ~seed ~fuel ~mode ~isa fb =
  let obs, sys, outcome =
    op t label
      ~instrs:(fun (_, sys, _) -> System.instructions sys)
      (fun () ->
        let obs = Obs.create () in
        let sys = boot ~obs ~seed ~isa ~mode fb in
        (obs, sys, run_sys sys ~fuel))
  in
  add_counters t obs;
  (outcome, System.output sys)

let spec_programs () = Workloads.all @ [ Workloads.httpd ]

let spec_with programs =
  let setup ~seed ~perturb () =
    let progs = List.map (fun w -> (w, compile (Workloads.full_source w))) programs in
    let httpd_expect = bump perturb (Httpd_model.benign ()) in
    let round t =
      List.iteri
        (fun wi ((w : Workloads.t), fb) ->
          (* the first combination's output is what the other five
             must reproduce: PSR and migration preserve semantics *)
          let first = ref None in
          List.iter
            (fun mode ->
              List.iter
                (fun isa ->
                  let label = Printf.sprintf "%s/%s/%s" w.w_name (mode_name mode) (isa_name isa) in
                  let outcome, out =
                    run_program t ~label ~seed:(seed + wi) ~fuel:(3 * w.w_fuel) ~mode ~isa fb
                  in
                  let base = match !first with Some b -> b | None -> out in
                  if !first = None then first := Some out;
                  if outcome <> System.Finished 0 then fail t (label ^ ": " ^ outcome_string outcome)
                  else if out <> base then
                    fail t (Printf.sprintf "%s: output %s, other modes gave %s" label (show out) (show base))
                  else if w.w_name = "httpd" && out <> httpd_expect then
                    fail t
                      (Printf.sprintf "%s: output %s, the request-loop model gives %s" label
                         (show out) (show httpd_expect)))
                isas)
            modes)
        progs
    in
    { p_fatbins = List.map snd progs; p_reference = ignore; p_round = round; p_fleet = ref None }
  in
  {
    w_name = "spec";
    w_min_ops = 100;
    w_setup_reps = 21;
    w_scaled = true;
    w_warm = ignore;
    w_setup = setup;
  }

let spec = spec_with (spec_programs ())

let kernels_with ~shrink =
  let setup ~seed ~perturb () =
    let ks = List.map (fun k -> (k, compile k.Kernels.k_src)) (Kernels.all ~seed ~shrink) in
    let round t =
      List.iter
        (fun ((k : Kernels.t), fb) ->
          let expect = bump perturb (Lazy.force k.k_expect) in
          List.iter
            (fun mode ->
              List.iter
                (fun isa ->
                  let label = Printf.sprintf "%s/%s/%s" k.k_name (mode_name mode) (isa_name isa) in
                  let outcome, out = run_program t ~label ~seed ~fuel:k.k_fuel ~mode ~isa fb in
                  if outcome <> System.Finished 0 then fail t (label ^ ": " ^ outcome_string outcome)
                  else if out <> expect then
                    fail t
                      (Printf.sprintf "%s: output %s, the OCaml transcription gives %s" label
                         (show out) (show expect)))
                isas)
            modes)
        ks
    in
    (* the transcriptions run here, untimed, not in set-up *)
    let reference () = List.iter (fun ((k : Kernels.t), _) -> ignore (Lazy.force k.k_expect)) ks in
    { p_fatbins = List.map snd ks; p_reference = reference; p_round = round; p_fleet = ref None }
  in
  {
    w_name = "kernels";
    w_min_ops = 1;
    w_setup_reps = 31;
    w_scaled = true;
    w_warm = ignore;
    w_setup = setup;
  }

let kernels = kernels_with ~shrink:1

(* --- migrate: checkpoint, restore, run to exit --------------------- *)

let migrate_cfg = { Config.default with cc_policy = Code_cache.Clock; cache_bytes = 4_096 }

(* A HIPStR system stopped mid-run: fuel for a fifth of the workload's
   budget, backing off until the partial run really stops short of
   exit. *)
let mid_run ~seed (w : Workloads.t) fb =
  let rec at partial =
    let sys =
      boot ~cfg:migrate_cfg ~obs:(Obs.create ()) ~seed ~isa:Desc.Cisc ~mode:System.Hipstr fb
    in
    match run_sys sys ~fuel:partial with
    | System.Out_of_fuel -> sys
    | _ when partial > 64 -> at (partial / 4)
    | o -> failwith (Printf.sprintf "%s: finished before a checkpoint (%s)" w.w_name (outcome_string o))
  in
  at (w.w_fuel / 5)

(* Checkpoint [sys], restore the image into a fresh system and run
   that to exit: (obs, restored system, outcome). *)
let relocate (w : Workloads.t) fb sys =
  let image =
    Spans.span "snapshot.checkpoint" (fun () ->
        let image = Snapshot.checkpoint ~workload:w.w_name sys in
        Spans.note "bytes" (String.length image);
        image)
  in
  let obs = Obs.create () in
  let restored =
    Spans.span "snapshot.restore" (fun () -> fst (Snapshot.restore ~obs ~fatbin:fb image))
  in
  let outcome = Spans.span "snapshot.finish" (fun () -> run_sys restored ~fuel:(3 * w.w_fuel)) in
  (obs, restored, outcome)

type finish = { f_outcome : System.outcome; f_output : int list; f_instrs : int; f_cycles : float }

let finished sys outcome =
  {
    f_outcome = outcome;
    f_output = System.output sys;
    f_instrs = System.instructions sys;
    f_cycles = System.cycles sys;
  }

let migrate_with programs =
  let setup ~seed ~perturb () =
    let points =
      List.map
        (fun (w : Workloads.t) ->
          let fb = compile (Workloads.full_source w) in
          (w, fb, mid_run ~seed w fb))
        programs
    in
    let refs = Hashtbl.create 16 in
    (* the uninterrupted run: an identical system, checkpointed at the
       same point (which quiesces its decode caches, as on the other
       side) and run on to exit *)
    let reference () =
      List.iter
        (fun ((w : Workloads.t), fb, _) ->
          let sys = mid_run ~seed w fb in
          ignore (Snapshot.checkpoint ~workload:w.w_name sys);
          let f = finished sys (run_sys sys ~fuel:(3 * w.w_fuel)) in
          let f = if perturb then { f with f_instrs = f.f_instrs + 1 } else f in
          Hashtbl.replace refs w.w_name f)
        points
    in
    let round t =
      List.iter
        (fun ((w : Workloads.t), fb, sys) ->
          let label = w.w_name ^ "/hipstr/checkpoint-restore" in
          let obs, restored, outcome =
            op t label
              ~instrs:(fun (_, restored, _) -> System.instructions restored)
              (fun () -> relocate w fb sys)
          in
          add_counters t obs;
          let got = finished restored outcome and want = Hashtbl.find refs w.w_name in
          if outcome <> System.Finished 0 then fail t (label ^ ": " ^ outcome_string outcome)
          else if got.f_output <> want.f_output then
            fail t
              (Printf.sprintf "%s: output %s, the uninterrupted run gave %s" label
                 (show got.f_output) (show want.f_output))
          else if got.f_instrs <> want.f_instrs then
            fail t
              (Printf.sprintf "%s: %d instructions, the uninterrupted run retired %d" label
                 got.f_instrs want.f_instrs)
          else if Int64.bits_of_float got.f_cycles <> Int64.bits_of_float want.f_cycles then
            fail t
              (Printf.sprintf "%s: %h cycles, the uninterrupted run took %h" label got.f_cycles
                 want.f_cycles))
        points
    in
    {
      p_fatbins = List.map (fun (_, fb, _) -> fb) points;
      p_reference = reference;
      p_round = round;
      p_fleet = ref None;
    }
  in
  {
    w_name = "migrate";
    w_min_ops = 100;
    w_setup_reps = 3;
    w_scaled = false;
    w_warm = ignore;
    w_setup = setup;
  }

let migrate = migrate_with (spec_programs ())

(* --- serve: the fleet trace, one op per connection ----------------- *)

(* ROADMAP item 1's fleet trace: fleet-run's default seed, 200
   connections, poisson:50, mix 60,20,10,10. The run's seed goes to the
   fleet (each connection's PSR randomization), not to the trace. *)
let serve_trace_seed = 1
let serve_procs = 200
let serve_arrival = Traffic.Poisson 50.
let serve_mix = { Traffic.mx_valid = 60; mx_oversized = 20; mx_malformed = 10; mx_attack = 10 }

let serve_config ~seed =
  {
    Fleet.default with
    Fleet.fl_shards = 4;
    fl_policy = Cmp.Security_first;
    fl_mode = System.Psr_only;
    fl_seed = seed;
  }

let generate ~procs =
  Spans.span "fleet.trace" (fun () ->
      Traffic.generate ~seed:serve_trace_seed ~procs ~arrival:serve_arrival ~mix:serve_mix ())

(* Serve one connection alone, as the fleet would boot it, to exit. *)
let replay ~cfg (c : Traffic.conn) =
  let p =
    Spans.span "fleet.spawn" (fun () ->
        Traffic.spawn ~obs:(Obs.create ()) ?cfg:cfg.Fleet.fl_cfg ~seed:cfg.Fleet.fl_seed
          ~start_isa:(List.nth cfg.Fleet.fl_cores (c.cn_id mod List.length cfg.Fleet.fl_cores))
          ~fuel:cfg.Fleet.fl_fuel ~mode:cfg.Fleet.fl_mode c)
  in
  Spans.span "fleet.exec" (fun () ->
      while Process.runnable p do
        ignore (Process.run_slice p ~fuel:cfg.Fleet.fl_fuel)
      done);
  (Process.outcome p, System.output (Process.sys p))

let serve_round ~cfg ~conns ~verdicts ~(fleet : fleet_stats option ref) t =
  let obs = Obs.create () in
  let r, secs, cal =
    calibrated t (fun () -> Spans.span "fleet.run" (fun () -> Fleet.run ~jobs:1 ~obs cfg conns))
  in
  let n = List.length conns in
  record t ~label:"fleet" ~secs ~cal ~ops:n
    ~instrs:(List.fold_left (fun acc rr -> acc + rr.Fleet.rr_instructions) 0 r.Fleet.r_records);
  add_counters t obs;
  let served = Hashtbl.create n in
  List.iter
    (fun (rr : Fleet.req_record) -> Hashtbl.replace served rr.rr_id rr.rr_outcome)
    r.Fleet.r_records;
  List.iter
    (fun (c : Traffic.conn) ->
      let label = Printf.sprintf "conn %d (%s)" c.cn_id (Traffic.kind_name c.cn_kind) in
      match (Hashtbl.find_opt served c.cn_id, c.cn_kind) with
      | None, _ -> fail t (label ^ ": not served")
      | Some System.Shell_spawned, _ -> fail t (label ^ ": spawned a shell")
      | Some (System.Finished 0), (Traffic.Valid | Traffic.Malformed) -> (
        match Hashtbl.find_opt verdicts c.cn_id with
        | Some (Ok ()) -> ()
        | Some (Error msg) -> fail t (label ^ ": " ^ msg)
        | None -> fail t (label ^ ": not replayed"))
      | Some o, (Traffic.Valid | Traffic.Malformed) -> fail t (label ^ ": " ^ outcome_string o)
      | Some (System.Finished _ | System.Killed _), (Traffic.Oversized | Traffic.Attack) -> ()
      | Some o, (Traffic.Oversized | Traffic.Attack) -> fail t (label ^ ": " ^ outcome_string o))
    conns;
  fleet :=
    Some
      {
        fs_waves = r.Fleet.r_waves;
        fs_p99_cycles = Fleet.latency_percentile r 99.;
        fs_completed_per_mcycle = Fleet.throughput r;
      }

(* Replay connections alone and check each valid or malformed one
   against the request-loop model; [all] replays the others too (for
   their spawn and exec times), without a check. *)
let replay_verdicts ~cfg ~perturb ~all conns =
  let verdicts = Hashtbl.create 256 in
  List.iter
    (fun (c : Traffic.conn) ->
      match c.cn_kind with
      | Traffic.Valid | Traffic.Malformed ->
        let expect =
          bump perturb (Httpd_model.staged ~line:c.cn_line ~len:c.cn_len ~requests:c.cn_requests)
        in
        let v =
          match replay ~cfg c with
          | Some (System.Finished 0), out when out = expect -> Ok ()
          | Some (System.Finished 0), out ->
            Error
              (Printf.sprintf "replayed alone, output %s, the request-loop model gives %s"
                 (show out) (show expect))
          | Some o, _ -> Error ("replayed alone: " ^ outcome_string o)
          | None, _ -> Error "replayed alone: still runnable"
        in
        Hashtbl.replace verdicts c.cn_id v
      | Traffic.Oversized | Traffic.Attack -> if all then ignore (replay ~cfg c))
    conns;
  verdicts

let serve_with ~procs =
  let setup ~seed ~perturb () =
    let fb = compile (Workloads.full_source Traffic.victim) in
    let conns = generate ~procs in
    let cfg = serve_config ~seed in
    let verdicts = Hashtbl.create 256 in
    let fleet = ref None in
    let reference () =
      Hashtbl.reset verdicts;
      Hashtbl.iter (Hashtbl.replace verdicts)
        (replay_verdicts ~cfg ~perturb ~all:!Spans.on conns)
    in
    {
      p_fatbins = [ fb ];
      p_reference = reference;
      p_round = serve_round ~cfg ~conns ~verdicts ~fleet;
      p_fleet = fleet;
    }
  in
  (* [Traffic.spawn] boots the victim binary [Workloads] memoizes; it
     is compiled once here so that every set-up times the same work *)
  let warm () = ignore (Traffic.fatbin ()) in
  {
    w_name = "serve";
    w_min_ops = 1;
    w_setup_reps = 101;
    w_scaled = false;
    w_warm = warm;
    w_setup = setup;
  }

let serve = serve_with ~procs:serve_procs

let all = [ spec; kernels; serve; migrate ]
