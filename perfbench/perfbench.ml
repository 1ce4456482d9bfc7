(* Campaign benchmark. One run measures one workload (see Workloads) and
   prints, as the last line of stdout, one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   --trace 0 measures the end-to-end metrics with tracing off: campaign
   sweeps repeat for --seconds, then the Legacy oracle runs on the same
   cells and seed and every experiment record is compared with it.
   --trace 1 runs the workload once untraced, then the traced replay
   (Replay), asserts that both agree experiment for experiment, and
   reports the per-layer metrics; the span file and a per-layer table
   are written under .perfbench/.

   Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
          perfbench --self-test *)

open Vulfi

let end_to_end_metrics =
  [
    ("exp_per_s", "1/s");
    ("exp_per_cpu_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("setup_s", "s");
  ]

let per_layer_metrics =
  [
    ("minispc.build_s", "s");
    ("instrument.s", "s");
    ("instrument.static_sites", "count");
    ("passes.s", "s");
    ("passes.sched_moves", "count");
    ("passes.chains_annotated", "count");
    ("compile.s", "s");
    ("compile.chains_fused", "count");
    ("prepare.calls", "count");
    ("prepare.s", "s");
    ("golden.calls", "count");
    ("golden.s", "s");
    ("golden.dyn_instrs", "count");
    ("golden.minstr_per_s", "Minstr/s");
    ("lay.calls", "count");
    ("lay.s", "s");
    ("lay.checkpoints", "count");
    ("lay.alloc_mb", "MiB");
    ("faulty.calls", "count");
    ("faulty.s", "s");
    ("faulty.us_p50", "us");
    ("faulty.us_p99", "us");
    ("faulty.alloc_b_per_call", "B");
    ("faulty.resumed", "count");
    ("faulty.suffix_instrs", "count");
    ("prune.checks", "count");
    ("prune.hits", "count");
    ("prune.hit_per_check", "ratio");
    ("prune.hit_per_prunable", "ratio");
    ("detectors.transform_s", "s");
    ("detectors.hooks_created", "count");
    ("detectors.flagged", "count");
    ("trace.records", "count");
    ("trace.bytes", "B");
    ("trace.emit_s", "s");
    ("campaign.rounds", "count");
    ("campaign.experiments", "count");
    ("outcome.sdc", "count");
    ("outcome.benign", "count");
    ("outcome.crash", "count");
    ("pool.cpu_util", "ratio");
    ("gc.minor_mb", "MiB");
    ("gc.promoted_mb", "MiB");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MiB");
    ("tracing.untraced_s", "s");
    ("tracing.traced_s", "s");
    ("tracing.overhead_s", "s");
  ]

let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process so far, in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an unsorted array; 0 when empty. *)
let percentile p (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mib bytes = bytes /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Everything a run does before its first campaign call: process start,
   runtime and library initialisation, and building the workload's cells
   and configuration. Measured by spawning this executable in
   --setup-probe mode [setup_probes] times, each scaled to the nominal
   host speed ({!Hostspeed}); the median is reported. *)
let setup_probes = 21

let setup_s ~workload ~seed =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--setup-probe"; "--workload"; workload; "--seed";
       string_of_int seed |]
  in
  median
    (List.init setup_probes (fun _ ->
         let before = Hostspeed.speed () in
         let t0 = now () in
         let pid =
           Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr
         in
         (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _ -> failwith "setup probe failed");
         let dt = now () -. t0 in
         Hostspeed.scale dt ~before ~after:(Hostspeed.speed ())))

let setup_probe ~workload ~seed =
  let wl = Workloads.make workload ~seed in
  let sink = Workloads.sink (Buffer.create 4096) in
  ignore (Sys.opaque_identity (wl, sink))

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)

type outcome = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* Sweeps repeat for at least [seconds] and at least [min_sweeps] times.
   Within a sweep the clock is read at every campaign-round boundary
   (see {!Workloads.closes_round}), which cuts the sweep into a few
   hundred short stretches, and the host-speed reference is sampled
   there too. The schedule is deterministic, so stretch i does the same
   work in every sweep. A stretch's time is scaled to the nominal host
   speed with the samples on either side ({!Hostspeed}), and the sweep's
   time is the sum over stretches of each one's fastest scaled
   repetition: on a host whose speed changes as other tenants load it,
   that is the least disturbed one. Every sweep's output is then checked
   against the Legacy oracle. *)
let min_sweeps = 3

type mark = { t0 : float; c0 : float; speed : float; t1 : float; c1 : float }

let measure_untraced (wl : Workloads.t) ~seconds ~setup =
  (* fastest scaled wall / CPU seconds of each stretch so far *)
  let best_wall = ref [||] and best_cpu = ref [||] in
  let sweep_walls = ref [] in
  (* distinct sweep outputs, with how many sweeps produced each *)
  let outputs : ((Campaign.result list * string) * int ref) list ref = ref [] in
  let t_start = now () in
  let sweeps = ref 0 in
  while !sweeps < min_sweeps || now () -. t_start < seconds do
    let marks = ref [] in
    let mark () =
      let t0 = now () and c0 = cpu_s () in
      let speed = Hostspeed.speed () in
      marks := { t0; c0; speed; t1 = now (); c1 = cpu_s () } :: !marks
    in
    mark ();
    let out = Workloads.run ~mark ~executor:Workloads.executor wl in
    mark ();
    let marks = Array.of_list (List.rev !marks) in
    (* the stretch from the end of mark i to the start of mark i+1 *)
    let stretches f =
      Array.init (Array.length marks - 1) (fun i ->
          let a = marks.(i) and b = marks.(i + 1) in
          Hostspeed.scale (f a b) ~before:a.speed ~after:b.speed)
    in
    let walls = stretches (fun a b -> b.t0 -. a.t1) in
    let cpus = stretches (fun a b -> b.c0 -. a.c1) in
    sweep_walls := (marks.(Array.length marks - 1).t0 -. marks.(0).t1) :: !sweep_walls;
    if !sweeps = 0 then begin
      best_wall := walls;
      best_cpu := cpus
    end
    else if Array.length walls = Array.length !best_wall then begin
      (* a sweep with another stretch count has other output: the
         oracle check below fails it *)
      best_wall := Array.map2 Float.min !best_wall walls;
      best_cpu := Array.map2 Float.min !best_cpu cpus
    end;
    incr sweeps;
    match List.find_opt (fun (o, _) -> compare o out = 0) !outputs with
    | Some (_, k) -> incr k
    | None -> outputs := (out, ref 1) :: !outputs
  done;
  let peak = peak_rss_mib () in
  let oracle = Oracle.run wl in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (((results, _) as got), k) ->
        ( a + (!k * Workloads.experiments results),
          f + (!k * Oracle.failed ~oracle ~got) ))
      (0, 0) !outputs
  in
  let per_sweep = float_of_int (attempted / !sweeps) in
  let sum = Array.fold_left ( +. ) 0.0 in
  {
    metrics =
      [
        ("exp_per_s", per_sweep /. sum !best_wall);
        ("exp_per_cpu_s", per_sweep /. sum !best_cpu);
        ("peak_rss_mb", peak);
        ("setup_s", setup);
      ];
    attempted;
    failed;
    notes =
      [
        Printf.sprintf
          "%s: %d sweeps of %d stretches, %d experiments, failed_frac %g"
          wl.Workloads.name !sweeps (Array.length !best_wall) attempted
          (ratio (float_of_int failed) (float_of_int attempted));
        "unscaled exp/s per whole sweep (including reference samples): "
        ^ String.concat " "
            (List.rev_map (fun w -> Printf.sprintf "%.1f" (per_sweep /. w))
               !sweep_walls);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)

let layer_table ~wl_name ~untraced ~traced =
  let b = Buffer.create 4096 in
  Printf.bprintf b "per-layer table: %s (replay at -j1)\n" wl_name;
  Printf.bprintf b "%-22s %9s %11s %11s %8s\n" "layer" "calls" "total_s"
    "self_s" "share";
  List.iter
    (fun (name, (calls, total, self)) ->
      Printf.bprintf b "%-22s %9d %11.6f %11.6f %7.2f%%\n" name calls total
        self (100.0 *. ratio self traced))
    (Spans.by_layer ());
  Printf.bprintf b
    "untraced %.6f s, traced %.6f s, tracing overhead %.6f s (%.2f%%)\n"
    untraced traced (traced -. untraced)
    (100.0 *. ratio (traced -. untraced) untraced);
  Buffer.contents b

let measure_traced (wl : Workloads.t) ~seed =
  let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs in
  (* the workload's own campaign calls, untraced *)
  let gc0 = Gc.quick_stat () in
  let c0 = cpu_s () and t0 = now () in
  let ((results, _) as untraced) =
    Workloads.run ~executor:Workloads.executor wl
  in
  let t1 = now () and c1 = cpu_s () in
  let gc1 = Gc.quick_stat () in
  let jobs = Option.value wl.Workloads.jobs ~default:1 in
  let cpu_util = ratio (c1 -. c0) ((t1 -. t0) *. float_of_int jobs) in
  Spans.reset ();
  let t0 = now () in
  let r_results, r_trace, k = Replay.run wl in
  let traced_s = now () -. t0 in
  (* the untraced -j1 reference for the tracing overhead, run after the
     replay so that neither side pays the process's cold start *)
  let t0 = now () in
  ignore
    (Workloads.run ~executor:Workloads.executor { wl with Workloads.jobs = None });
  let untraced_s = now () -. t0 in
  let replay_failed =
    Oracle.failed ~oracle:untraced ~got:(r_results, r_trace)
  in
  let oracle = Oracle.run wl in
  let failed = Oracle.failed ~oracle ~got:untraced + replay_failed in
  let attempted = 2 * Workloads.experiments results in
  (* span file and per-layer table *)
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let stem =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d" wl.Workloads.name seed)
  in
  Spans.write_jsonl (stem ^ ".spans.jsonl");
  let table = layer_table ~wl_name:wl.Workloads.name ~untraced:untraced_s ~traced:traced_s in
  let oc = open_out (stem ^ ".layers.txt") in
  output_string oc table;
  close_out oc;
  let span_s name = snd (Spans.total name) in
  let span_n name = float_of_int (fst (Spans.total name)) in
  let faulty = Spans.durations "faulty" in
  let f = float_of_int in
  let pruned_possible = sum (fun r -> r.Campaign.c_pruned) results in
  let totals g = sum (fun r -> g r.Campaign.c_totals) results in
  let metrics =
    [
      ("minispc.build_s", span_s "minispc.build");
      ("instrument.s", span_s "instrument");
      ("instrument.static_sites", f k.Replay.static_sites);
      ("passes.s", span_s "passes");
      ("passes.sched_moves", f k.Replay.sched_moves);
      ("passes.chains_annotated", f k.Replay.chains_annotated);
      ("compile.s", span_s "compile");
      ("compile.chains_fused", f k.Replay.chains_fused);
      ("prepare.calls", span_n "prepare");
      ("prepare.s", span_s "prepare");
      ("golden.calls", span_n "golden");
      ("golden.s", span_s "golden");
      ("golden.dyn_instrs", f k.Replay.golden_dyn_instrs);
      ( "golden.minstr_per_s",
        ratio (f k.Replay.golden_dyn_instrs /. 1e6) (span_s "golden") );
      ("lay.calls", span_n "lay");
      ("lay.s", span_s "lay");
      ("lay.checkpoints", f k.Replay.checkpoints);
      ("lay.alloc_mb", mib k.Replay.lay_alloc_bytes);
      ("faulty.calls", f (Array.length faulty));
      ("faulty.s", span_s "faulty");
      ("faulty.us_p50", 1e6 *. percentile 0.50 faulty);
      ("faulty.us_p99", 1e6 *. percentile 0.99 faulty);
      ( "faulty.alloc_b_per_call",
        ratio k.Replay.faulty_alloc_bytes (f (Array.length faulty)) );
      ("faulty.resumed", f k.Replay.resumed);
      ("faulty.suffix_instrs", f k.Replay.suffix_instrs);
      ("prune.checks", f k.Replay.prune_checks);
      ("prune.hits", f k.Replay.prune_hits);
      ("prune.hit_per_check", ratio (f k.Replay.prune_hits) (f k.Replay.prune_checks));
      ("prune.hit_per_prunable", ratio (f k.Replay.prune_hits) (f pruned_possible));
      ("detectors.transform_s", span_s "detectors.transform");
      ("detectors.hooks_created", f k.Replay.hooks_created);
      ("detectors.flagged", f (totals (fun t -> t.Campaign.n_detected)));
      ("trace.records", f k.Replay.records);
      ("trace.bytes", f k.Replay.bytes);
      ("trace.emit_s", span_s "trace.emit");
      ("campaign.rounds", f (sum (fun r -> r.Campaign.c_campaigns) results));
      ("campaign.experiments", f (totals (fun t -> t.Campaign.n_experiments)));
      ("outcome.sdc", f (totals (fun t -> t.Campaign.n_sdc)));
      ("outcome.benign", f (totals (fun t -> t.Campaign.n_benign)));
      ("outcome.crash", f (totals (fun t -> t.Campaign.n_crash)));
      ("pool.cpu_util", cpu_util);
      ( "gc.minor_mb",
        mib (8.0 *. (gc1.Gc.minor_words -. gc0.Gc.minor_words)) );
      ( "gc.promoted_mb",
        mib (8.0 *. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)) );
      ( "gc.major_collections",
        f (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("gc.top_heap_mb", mib (8.0 *. f gc1.Gc.top_heap_words));
      ("tracing.untraced_s", untraced_s);
      ("tracing.traced_s", traced_s);
      ("tracing.overhead_s", traced_s -. untraced_s);
    ]
  in
  {
    metrics;
    attempted;
    failed;
    notes =
      [
        table;
        Printf.sprintf "replay vs untraced: %d mismatching experiments"
          replay_failed;
        Printf.sprintf "wrote %s.spans.jsonl and %s.layers.txt" stem stem;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let result_json ~units (o : outcome) =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Float v);
                     ("unit", Json.String (List.assoc name units)) ] ))
             o.metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Self-test on a reduced configuration                                *)

let reduce (wl : Workloads.t) =
  let rec take n = function
    | x :: r when n > 0 -> x :: take (n - 1) r
    | _ -> []
  in
  {
    wl with
    Workloads.cfg =
      { wl.Workloads.cfg with
        Campaign.experiments_per_campaign = 10; min_campaigns = 2;
        max_campaigns = 3 };
    cells = take 2 wl.Workloads.cells;
    jobs = Option.map (fun _ -> 2) wl.Workloads.jobs;
  }

(* Metric (name, unit) pairs declared in BENCHMARK.json under [key]. *)
let declared key =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let str f j = Option.bind (Json.member f j) Json.get_string in
  match Option.bind (Json.member key (Json.of_string text)) Json.get_list with
  | Some l ->
    List.filter_map
      (fun j ->
        match (str "name" j, str "unit" j) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      l
  | None -> []

let self_test () =
  let ok = ref true in
  let check what cond =
    Printf.printf "%-64s %s\n%!" what (if cond then "ok" else "FAIL");
    if not cond then ok := false
  in
  let sorted l = List.sort compare l in
  check "BENCHMARK.json end_to_end = emitted end-to-end metrics"
    (sorted (declared "end_to_end") = sorted end_to_end_metrics);
  check "BENCHMARK.json per_layer = emitted per-layer metrics"
    (sorted (declared "per_layer") = sorted per_layer_metrics);
  let seed = 0xC0FFEE in
  List.iter
    (fun name ->
      let wl = reduce (Workloads.make name ~seed) in
      let t = measure_traced wl ~seed in
      check (name ^ ": replay equals campaign, oracle agrees") (t.failed = 0);
      check (name ^ ": every per-layer metric emitted")
        (sorted (List.map fst t.metrics) = sorted (List.map fst per_layer_metrics));
      let u = measure_untraced wl ~seconds:0.0 ~setup:0.0 in
      check (name ^ ": untraced run agrees with the oracle") (u.failed = 0);
      check (name ^ ": every end-to-end metric emitted")
        (sorted (List.map fst u.metrics) = sorted (List.map fst end_to_end_metrics));
      (* the oracle check must fire on corrupted output *)
      let ((results, trace) as got) =
        Workloads.run ~executor:Workloads.executor wl
      in
      let oracle = Oracle.run wl in
      let lines = String.split_on_char '\n' trace in
      let corrupt_nth pred =
        let seen = ref false in
        String.concat "\n"
          (List.map
             (fun l ->
               if (not !seen) && pred l then begin
                 seen := true;
                 l ^ " "
               end
               else l)
             lines)
      in
      let exp_line l = String.starts_with ~prefix:"{\"type\":\"experiment\"" l in
      let sum_line l = String.starts_with ~prefix:"{\"type\":\"summary\"" l in
      let n0 =
        (List.hd results).Campaign.c_totals.Campaign.n_experiments
      in
      check (name ^ ": oracle check passes unmodified output")
        (Oracle.failed ~oracle ~got = 0);
      check (name ^ ": oracle check fires on one corrupted record")
        (Oracle.failed ~oracle ~got:(results, corrupt_nth exp_line) = 1);
      check (name ^ ": oracle check fails a cell on a corrupted summary")
        (Oracle.failed ~oracle ~got:(results, corrupt_nth sum_line) = n0);
      let bad =
        { (List.hd results) with
          Campaign.c_campaigns = (List.hd results).Campaign.c_campaigns + 1 }
      in
      check (name ^ ": oracle check fails a cell on a corrupted result")
        (Oracle.failed ~oracle ~got:(bad :: List.tl results, trace) = n0))
    Workloads.names;
  if !ok then print_endline "self-test ok"
  else begin
    print_endline "self-test FAILED";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \       perfbench --self-test\n\
   workloads: " ^ String.concat ", " Workloads.names

let () =
  let workload = ref "" and seed = ref 0xC0FFEE and seconds = ref 10.0 in
  let trace = ref 0 in
  let probe = ref false and selftest = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--setup-probe" :: r -> probe := true; parse r
    | "--self-test" :: r -> selftest := true; parse r
    | [] -> ()
    | a :: _ -> prerr_endline ("perfbench: bad argument " ^ a ^ "\n" ^ usage); exit 2
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ -> prerr_endline usage; exit 2);
  if !selftest then self_test ()
  else if !probe then setup_probe ~workload:!workload ~seed:!seed
  else begin
    if not (List.mem !workload Workloads.names && (!trace = 0 || !trace = 1))
    then begin
      prerr_endline usage;
      exit 2
    end;
    let wl = Workloads.make !workload ~seed:!seed in
    let o, units =
      if !trace = 0 then
        let setup = setup_s ~workload:!workload ~seed:!seed in
        (measure_untraced wl ~seconds:!seconds ~setup, end_to_end_metrics)
      else (measure_traced wl ~seed:!seed, per_layer_metrics)
    in
    List.iter print_endline o.notes;
    print_endline (Json.to_string (result_json ~units o));
    if o.failed <> 0 then exit 1
  end

