(* The traced run's per-layer figures.

   Every figure comes from the spans recorded around the benchmark's
   own calls into a layer, or from obs counters summed over its ops.
   A workload that never calls a layer (spec never checkpoints, serve
   never calls [System.run] itself) takes that layer's figure from the
   probe: a fixed set of calls on [httpd] made after the ops, in
   every traced run. [machine.mem_create_ms] and
   [snapshot.fingerprint_ms] always come from direct calls made there,
   since the program makes them only inside other layers. *)

open Bench

(* A direct call into each layer, on httpd, under the Probe phase. *)
type probe = { pr_tally : tally; pr_conns : int; pr_fleet : fleet_stats option }

let probe_conns = 16

let probe ~seed (p : prepared) =
  Spans.phase := Spans.Probe;
  let w = Workloads.httpd in
  let fb = compile (Workloads.full_source w) in
  for _ = 1 to 8 do
    Spans.span "machine.mem_create" (fun () ->
        ignore (Sys.opaque_identity (Mem.create Layout.mem_size)))
  done;
  List.iter
    (fun fb -> Spans.span "snapshot.fingerprint" (fun () -> ignore (Snapshot.fingerprint fb)))
    p.p_fatbins;
  let t = tally () in
  List.iter
    (fun mode ->
      ignore
        (run_program t ~label:("httpd/" ^ mode_name mode) ~seed ~fuel:(3 * w.w_fuel) ~mode
           ~isa:Desc.Cisc fb))
    modes;
  let sys = mid_run ~seed w fb in
  for _ = 1 to 3 do
    ignore (relocate w fb sys)
  done;
  let cfg = serve_config ~seed in
  let conns = List.filteri (fun i _ -> i < probe_conns) (generate ~procs:serve_procs) in
  let verdicts = replay_verdicts ~cfg ~perturb:false ~all:true conns in
  let fleet = ref None in
  let ft = tally () in
  serve_round ~cfg ~conns ~verdicts ~fleet ft;
  { pr_tally = t; pr_conns = List.length conns; pr_fleet = !fleet }

(* --- reading the spans --------------------------------------------- *)

let own_or_probe pred =
  let all = List.filter pred (Spans.all ()) in
  match List.filter (fun s -> s.Spans.phase <> Spans.Probe) all with
  | [] -> List.filter (fun s -> s.Spans.phase = Spans.Probe) all
  | own -> own

let named name s = s.Spans.name = name
let ms s = 1000. *. Spans.duration s
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let median_ms name =
  match own_or_probe (named name) with
  | [] -> nan
  | xs -> Hipstr_util.Stats.median (List.map ms xs)

let mean_ms name =
  match own_or_probe (named name) with
  | [] -> nan
  | xs -> sum ms xs /. float_of_int (List.length xs)

let mips mode =
  let runs = own_or_probe (fun s -> named "core.run" s && Spans.attr s "mode" = mode_index mode) in
  sum (fun s -> float_of_int (Spans.attr s "instrs")) runs /. sum Spans.duration runs /. 1e6

let minor_words_per_instr () =
  let runs = own_or_probe (named "core.run") in
  sum (fun s -> float_of_int (Spans.attr s "minor_words")) runs
  /. sum (fun s -> float_of_int (Spans.attr s "instrs")) runs

(* fleet.run wall per connection, minus spawn and exec of a connection
   served alone: waves, reaping and GC *)
let fleet_other_ms ~(own : tally) ~(pr : probe) =
  let per_conn phase conns =
    sum ms (List.filter (fun s -> named "fleet.run" s && s.Spans.phase = phase) (Spans.all ()))
    /. float_of_int conns
  in
  let runs = List.filter (fun s -> named "fleet.run" s && s.Spans.phase = Spans.Ops) (Spans.all ()) in
  let run_ms = if runs = [] then per_conn Spans.Probe pr.pr_conns else per_conn Spans.Ops own.attempted in
  run_ms -. mean_ms "fleet.spawn" -. mean_ms "fleet.exec"

let counter tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let both tbl suffix pre = counter tbl (pre ^ ".cisc." ^ suffix) + counter tbl (pre ^ ".risc." ^ suffix)

(* useful over attempted; from the probe's counters when the ops made
   no attempt *)
let ratio ~(own : tally) ~(pr : probe) hits attempts =
  let r tbl = float_of_int (hits tbl) /. float_of_int (attempts tbl) in
  if attempts own.counters > 0 then r own.counters else r pr.pr_tally.counters

let per_op (t : tally) count = float_of_int (count t.counters) /. float_of_int t.attempted

(* (name, unit, value) for every per-layer metric, in BENCHMARK.json
   order. *)
let metrics ~(own : tally) ~(pr : probe) ~(fleet : fleet_stats option) =
  let dc_hits tbl = both tbl "decode_cache.hits" "machine" in
  let dc_all tbl = dc_hits tbl + both tbl "decode_cache.misses" "machine" in
  let cc_hits tbl = both tbl "cache_hits" "psr" in
  let cc_all tbl =
    cc_hits tbl + both tbl "cache_misses.compulsory" "psr" + both tbl "cache_misses.capacity" "psr"
  in
  let fs = match fleet with Some f -> Some f | None -> pr.pr_fleet in
  let fleet_fig f = match fs with Some s -> f s | None -> nan in
  let image_kb =
    match own_or_probe (named "snapshot.checkpoint") with
    | [] -> nan
    | xs ->
      sum (fun s -> float_of_int (Spans.attr s "bytes")) xs /. 1024. /. float_of_int (List.length xs)
  in
  let gc = Gc.quick_stat () in
  [
    ("compiler.compile_ms", "ms", median_ms "compiler.compile");
    ("machine.mem_create_ms", "ms", median_ms "machine.mem_create");
    ("core.boot_ms", "ms", median_ms "core.boot");
    ("core.run_ms", "ms", median_ms "core.run");
    ("machine.native_mips", "Minstr/s", mips System.Native);
    ("psr.psr_mips", "Minstr/s", mips System.Psr_only);
    ("migration.hipstr_mips", "Minstr/s", mips System.Hipstr);
    ("machine.minor_words_per_instr", "words/instr", minor_words_per_instr ());
    ("machine.decode_hit_ratio", "ratio", ratio ~own ~pr dc_hits dc_all);
    ("psr.code_cache_hit_ratio", "ratio", ratio ~own ~pr cc_hits cc_all);
    ("psr.translations", "count/op", per_op own (fun tbl -> both tbl "translations" "psr"));
    ( "migration.migrations",
      "count/op",
      per_op own (fun tbl ->
          counter tbl "system.migrations.security" + counter tbl "system.migrations.forced") );
    ("snapshot.checkpoint_ms", "ms", median_ms "snapshot.checkpoint");
    ("snapshot.restore_ms", "ms", median_ms "snapshot.restore");
    ("snapshot.finish_ms", "ms", median_ms "snapshot.finish");
    ("snapshot.fingerprint_ms", "ms", median_ms "snapshot.fingerprint");
    ("snapshot.image_kb", "KiB", image_kb);
    ("fleet.trace_ms", "ms", median_ms "fleet.trace");
    ("fleet.spawn_ms", "ms", mean_ms "fleet.spawn");
    ("fleet.exec_ms", "ms", mean_ms "fleet.exec");
    ("fleet.other_ms_per_conn", "ms", fleet_other_ms ~own ~pr);
    ("fleet.waves", "count", fleet_fig (fun f -> float_of_int f.fs_waves));
    ("fleet.guest_p99_kcycles", "kcycles", fleet_fig (fun f -> f.fs_p99_cycles /. 1000.));
    ("fleet.guest_completed_per_mcycle", "1/Mcycle", fleet_fig (fun f -> f.fs_completed_per_mcycle));
    ( "gc.top_heap_mb",
      "MB",
      float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* --- the split of op wall time ------------------------------------- *)

(* Rows (layer, total ms, ms per op) whose totals, with the
   [unattributed] remainder, add up to the ops' wall time. *)
let split ~(own : tally) =
  let ops_phase = List.filter (fun s -> s.Spans.phase = Spans.Ops) (Spans.all ()) in
  let ops = List.filter (named "op") ops_phase in
  let n = float_of_int own.attempted in
  if ops <> [] then begin
    let ids = Hashtbl.create 256 in
    List.iter (fun s -> Hashtbl.replace ids s.Spans.id ()) ops;
    let children = List.filter (fun s -> Hashtbl.mem ids s.Spans.parent) ops_phase in
    let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) children) in
    let total = sum ms ops in
    let rows = List.map (fun nm -> (nm, sum ms (List.filter (named nm) children))) names in
    let attributed = sum snd rows in
    (total, List.map (fun (nm, t) -> (nm, t, t /. n)) (rows @ [ ("unattributed", total -. attributed) ]))
  end
  else begin
    (* serve: Fleet.run serves every connection in one call, so its
       per-connection wall time is split by replaying each connection
       alone (spawn, then exec to exit); the rest is unattributed *)
    let total = sum ms (List.filter (named "fleet.run") ops_phase) in
    let spawn = n *. mean_ms "fleet.spawn" and exec = n *. mean_ms "fleet.exec" in
    ( total,
      [
        ("fleet.spawn (alone)", spawn, spawn /. n);
        ("fleet.exec (alone)", exec, exec /. n);
        ("unattributed", total -. spawn -. exec, (total -. spawn -. exec) /. n);
      ] )
  end

let print_split ~workload ~(own : tally) =
  let total, rows = split ~own in
  let boots =
    List.length
      (List.filter
         (fun s -> s.Spans.phase = Spans.Ops && (named "core.boot" s || named "fleet.spawn" s))
         (Spans.all ()))
  in
  let boots = if boots = 0 then own.attempted else boots in
  Printf.printf "\nop wall time by layer, %s (%d ops, %.1f ms):\n" workload own.attempted total;
  Printf.printf "  %-26s %12s %10s %7s\n" "layer" "total ms" "ms/op" "share";
  List.iter
    (fun (nm, t, per) ->
      Printf.printf "  %-26s %12.1f %10.3f %6.1f%%\n" nm t per (100. *. t /. total);
      if nm = "core.boot" || nm = "fleet.spawn (alone)" then begin
        let est = float_of_int boots *. median_ms "machine.mem_create" in
        Printf.printf "    %-24s %12.1f %10.3f %6.1f%%  (probe median x %d arenas)\n"
          "of which mem_create" est (est /. float_of_int own.attempted) (100. *. est /. total)
          boots
      end)
    rows;
  Printf.printf "  %-26s %12.1f %10.3f %6.1f%%\n" "total" total
    (total /. float_of_int own.attempted) 100.
