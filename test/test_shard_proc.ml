(* Process-mode shard runs in their own executable: OCaml 5 refuses
   Unix.fork in a process that has ever spawned domains, and the main
   test binary's multicore suites do.  Everything here forks before any
   domain exists. *)

module Sh = Hdd_shard
module D = Hdd_runtime.Differential

let ok_or_fail what (r : D.report) =
  if not (D.ok r) then
    Alcotest.failf "%s: oracle rejected the run:@.%a" what D.pp_report r

let test_processes_smoke () =
  let r =
    Fixtures.shard_stress ~mode:`Processes ~seed:5 ~shards:2 ~txns:20
      ~profile:D.Mixed ()
  in
  ok_or_fail "process mode seed 5" r;
  Alcotest.(check bool) "made progress" true (r.D.r_stats.committed > 0)

let test_processes_four_shards () =
  let r =
    Fixtures.shard_stress ~mode:`Processes ~seed:8 ~shards:4 ~txns:24
      ~profile:D.Adhoc_read ()
  in
  ok_or_fail "process mode seed 8 @ 4 shards" r

(* A shard process that raises ends the run with [Shard_died] naming
   it: the script's first descriptor raises on shard 0 while 50 writes
   alternate between the two shards.  No domain may run here, so an
   alarm bounds the test instead of [Fixtures.within]. *)
let test_processes_raise_ends_run () =
  let bound = 20 in
  let t0 = Unix.gettimeofday () in
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ -> Alcotest.failf "no result within %d s: the run hangs" bound))
  in
  ignore (Unix.alarm bound);
  let result =
    match
      Sh.Cluster.run_script_processes ~partition:(D.chain_partition 2)
        ~init:D.default_init ~shards:2
        ~script:(Fixtures.raising_script ~writes:50) ()
    with
    | _ -> None
    | exception Sh.Cluster.Shard_died { shard; _ } -> Some shard
  in
  ignore (Unix.alarm 0);
  Sys.set_signal Sys.sigalrm old;
  match result with
  | None -> Alcotest.fail "no exception"
  | Some shard ->
    Alcotest.(check int) "the dead shard" 0 shard;
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed > 5. then Alcotest.failf "took %.1f s to notice" elapsed

let () =
  Alcotest.run "hdd-shard-proc"
    [ ( "processes",
        [ Alcotest.test_case "2-shard fork smoke" `Slow test_processes_smoke;
          Alcotest.test_case "4-shard fork run" `Slow
            test_processes_four_shards;
          Alcotest.test_case "a raising shard ends the process run" `Slow
            test_processes_raise_ends_run ] ) ]
