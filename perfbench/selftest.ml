(* The benchmark's checks can fail: on a short run of each workload
   (small inputs, one round), the true references pass every op, and
   references shifted by one make the run report failed ops. *)

open Perfbench
open Bench

let round (w : workload) ~perturb =
  w.w_warm ();
  let p = w.w_setup ~seed:3 ~perturb () in
  p.p_reference ();
  let t = tally () in
  p.p_round t;
  t

let check name (w : workload) ~expect_failed =
  let ok = round w ~perturb:false and bad = round w ~perturb:true in
  let expect_failed = expect_failed bad.attempted in
  Printf.printf "%-8s attempted %3d: failed %d with true references, %d perturbed (want %d)\n%!"
    name ok.attempted ok.failed bad.failed expect_failed;
  List.iter (Printf.printf "  %s\n") (List.rev ok.first_failures);
  if ok.attempted = 0 || ok.failed <> 0 || bad.failed <> expect_failed then begin
    Printf.printf "selftest: %s checks did not behave\n" name;
    exit 1
  end

let () =
  let httpd = [ Workloads.httpd ] in
  (* every op of a kernel, httpd or migrate run checks a reference *)
  check "kernels" (kernels_with ~shrink:40) ~expect_failed:Fun.id;
  check "spec" (spec_with httpd) ~expect_failed:Fun.id;
  check "migrate" (migrate_with httpd) ~expect_failed:Fun.id;
  (* serve checks a replayed output only on valid and malformed
     connections *)
  let conns = Traffic.generate ~seed:serve_trace_seed ~procs:16 ~arrival:serve_arrival ~mix:serve_mix () in
  let checked =
    List.length
      (List.filter
         (fun (c : Traffic.conn) -> c.cn_kind = Traffic.Valid || c.cn_kind = Traffic.Malformed)
         conns)
  in
  check "serve" (serve_with ~procs:16) ~expect_failed:(fun _ -> checked)
