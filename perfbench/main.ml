(* perfbench: one workload per invocation.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Sets up a fixed number of times (the median is setup_s), computes
   what the checks need, then runs whole rounds of the workload's ops
   until [S] seconds have passed, at least three rounds have run and
   the workload's minimum op count is met. The last line of standard
   output is one JSON object: correct, attempted, failed and the
   metrics — the end-to-end ones with [--trace 0], the per-layer ones
   with [--trace 1]. A traced run also prints its split of op wall
   time by layer and its own end-to-end figures (to compare with an
   untraced run for the tracing overhead), and writes its spans under
   [_perfbench/spans]. *)

open Perfbench
open Bench

let usage () =
  prerr_endline
    "usage: perfbench --workload spec|kernels|serve|migrate --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : workload; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  {
    workload =
      (match List.find_opt (fun w -> w.w_name = get "workload") all with
      | Some w -> w
      | None -> usage ());
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
  }

(* VmHWM of this process, in MB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* The end-to-end figures from the samples' host times, each scaled by
   [scale] of the calibration-loop time around it (see [Calib]).
   Throughput is read off the median round: each distinct op (label)
   at the median of its times over the run's rounds. Latency
   percentiles are over every op (serve: every round's wall time per
   connection). *)
let end_to_end ~scale ~setup_s ~peak_rss_mb (t : tally) =
  let secs sm = sm.sm_secs *. scale sm.sm_cal in
  let by_label = Hashtbl.create 64 in
  List.iter
    (fun sm ->
      Hashtbl.replace by_label sm.sm_label
        (sm :: Option.value ~default:[] (Hashtbl.find_opt by_label sm.sm_label)))
    t.samples;
  let round_s, round_ops, round_instrs =
    Hashtbl.fold
      (fun _ sms (s, o, i) ->
        let sm = List.hd sms in
        (s +. Hipstr_util.Stats.median (List.map secs sms), o + sm.sm_ops, i + sm.sm_instrs))
      by_label (0., 0, 0)
  in
  let op_ms = List.map (fun sm -> 1000. *. secs sm /. float_of_int sm.sm_ops) t.samples in
  let pct q = Hipstr_util.Stats.percentile op_ms q in
  [
    ("setup_s", "s", setup_s);
    ("ops_per_s", "ops/s", float_of_int round_ops /. round_s);
    ("op_ms_p50", "ms", pct 50.);
    ("op_ms_p90", "ms", pct 90.);
    ("guest_mips", "Minstr/s", float_of_int round_instrs /. round_s /. 1e6);
    ("peak_rss_mb", "MB", peak_rss_mb);
  ]

let show_figures ms =
  String.concat "  " (List.map (fun (n, u, v) -> Printf.sprintf "%s=%.4g %s" n v u) ms)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %f" name v);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let () =
  let a = parse Sys.argv in
  let w = a.workload in
  Spans.on := a.trace;
  Spans.phase := Spans.Setup;
  w.w_warm ();
  let setup_times, prepared =
    let st = tally () in
    let rec reps k acc =
      (* drop the previous set-up's systems before timing the next *)
      Gc.full_major ();
      let p, secs, cal = calibrated st (fun () -> w.w_setup ~seed:a.seed ~perturb:false ()) in
      if k = 1 then ((secs, cal) :: acc, p) else reps (k - 1) ((secs, cal) :: acc)
    in
    reps w.w_setup_reps []
  in
  Gc.full_major ();
  prepared.p_reference ();
  Spans.phase := Spans.Ops;
  let t = tally () in
  let start = now () and rounds = ref 0 and peak = ref nan in
  while !rounds < 3 || now () -. start < a.seconds || t.attempted < w.w_min_ops do
    prepared.p_round t;
    incr rounds;
    (* the high-water mark after a fixed amount of work, which does
       not depend on how many rounds the run's time allows *)
    if !rounds = 3 then peak := peak_rss_mb ()
  done;
  (* set-up is compilation (and, for migrate, interpretation up to
     mid-run) in every workload, so it is always scaled *)
  let to_ref cal = Calib.reference /. cal in
  let figures ~ops ~setup =
    end_to_end ~scale:ops
      ~setup_s:(Hipstr_util.Stats.median (List.map (fun (x, c) -> x *. setup c) setup_times))
      ~peak_rss_mb:!peak t
  in
  let e2e = figures ~ops:(if w.w_scaled then to_ref else fun _ -> 1.) ~setup:to_ref in
  Printf.printf "as measured: %s\n" (show_figures (figures ~ops:(fun _ -> 1.) ~setup:(fun _ -> 1.)));
  Printf.printf "calibration loop: median %.3f ms (scaled to %.3f ms: set-up%s)\n"
    (1000. *. Hipstr_util.Stats.median (List.map (fun sm -> sm.sm_cal) t.samples))
    (1000. *. Calib.reference)
    (if w.w_scaled then " and ops" else "");
  List.iter (Printf.eprintf "FAILED %s\n") (List.rev t.first_failures);
  let metrics =
    if not a.trace then e2e
    else begin
      let pr = Layers.probe ~seed:a.seed prepared in
      Layers.print_split ~workload:w.w_name ~own:t;
      Printf.printf "traced end-to-end: %s\n" (show_figures e2e);
      let dir = Filename.concat "_perfbench" "spans" in
      mkdir_p dir;
      let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" w.w_name a.seed) in
      Spans.write path;
      Printf.printf "spans: %s (%d)\n" path (List.length (Spans.all ()));
      Layers.metrics ~own:t ~pr ~fleet:!(prepared.p_fleet)
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) t.attempted t.failed (json_metrics metrics)
