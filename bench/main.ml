(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§IV).

     table1   Table I  — benchmark inventory + avg dynamic instructions
     fig10    Fig 10   — scalar/vector mix per fault-site category
     fig11    Fig 11   — SDC/Benign/Crash rates per benchmark/ISA/category
     fig12    Fig 12   — detector SDC-detection rates + overhead (micro)
     ablation          — design-choice ablations from DESIGN.md
     interp            — VM throughput (M instr/s, B/instr)

   Default (no argument): everything at "quick" scale. Flags:
     -j N                     run campaigns on N domains (default 1)
     --trace FILE             JSONL telemetry for every campaign run
     --legacy-executor        paper-literal two-runs-per-experiment protocol
     --ff-executor            fast-forward executor (checkpoint + resume)
     --prune-executor         converge-pruned executor (fast-forward + early
                              termination at golden-state re-convergence)
                              (the executor flags are mutually exclusive)
   Environment:
     VULFI_SCALE=paper        paper-scale campaigns (hours)
     VULFI_EXPERIMENTS=N      experiments per campaign override
     VULFI_CAMPAIGNS=N        max campaigns override

   fig11 and fig12 also export their cells to RESULTS_fig11.json /
   RESULTS_fig12.json for machine consumption. *)

let scale_is_paper =
  match Sys.getenv_opt "VULFI_SCALE" with
  | Some s -> String.lowercase_ascii s = "paper"
  | None -> false

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let campaign_config () =
  let base =
    if scale_is_paper then Vulfi.Campaign.paper_config
    else Vulfi.Campaign.quick_config
  in
  let experiments =
    getenv_int "VULFI_EXPERIMENTS" base.Vulfi.Campaign.experiments_per_campaign
  in
  let campaigns = getenv_int "VULFI_CAMPAIGNS" base.Vulfi.Campaign.max_campaigns in
  {
    base with
    Vulfi.Campaign.experiments_per_campaign = experiments;
    max_campaigns = campaigns;
    min_campaigns = min base.Vulfi.Campaign.min_campaigns campaigns;
  }

(* In quick mode restrict each workload to its smallest input so the
   default bench run completes in minutes. *)
let scale_workload (w : Vulfi.Workload.t) =
  if scale_is_paper then w else { w with Vulfi.Workload.w_inputs = 1 }

(* Worker-domain count (-j N) of the campaign driver, whose unit of
   work is a whole cell; the seed schedule makes the parallel results
   bit-identical to the sequential ones. *)
let jobs = ref 1

(* Executor selection: --legacy-executor is the paper's literal
   two-runs-per-experiment protocol (fresh profiling run + machine
   before every faulty run); --ff-executor resumes each faulty run from
   a full machine-state checkpoint at its injection site;
   --prune-executor additionally terminates a faulty run at the first
   later checkpoint site whose machine state matches the golden run's;
   the default is the checkpointed executor. Output is bit-identical
   across all four; the flags exist for cross-checks. *)
let executor = ref Vulfi.Campaign.Checkpointed

let executor_flags =
  [
    ("--legacy-executor", Vulfi.Campaign.Legacy);
    ("--ff-executor", Vulfi.Campaign.Fast_forward);
    ("--prune-executor", Vulfi.Campaign.Converge_pruned);
  ]

(* Shared telemetry sink (--trace FILE), threaded through every
   campaign the harness runs. *)
let the_sink : Vulfi.Trace.sink option ref = ref None

(* A sweep of cells through the campaign driver, on -j domains. *)
let campaign_cells ?transform ?hooks ?on_cell cfg cells =
  Vulfi.Campaign.run_cells ?transform ?hooks ?sink:!the_sink
    ~executor:!executor ?on_cell ~jobs:!jobs cfg cells

(* One cell (which runs on one domain at any -j). *)
let campaign_run ?transform ?hooks cfg w target category =
  match campaign_cells ?transform ?hooks cfg [ (w, target, category) ] with
  | [ r ] -> r
  | _ -> assert false

(* The quick (or paper-scale) Fig 11 sweep: every paper benchmark x
   ISA x site category. *)
let fig11_cells () =
  List.concat_map
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.concat_map
        (fun target ->
          List.map (fun cat -> (w, target, cat))
            Analysis.Sites.all_categories)
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks

(* Machine-readable export of a figure's campaign cells. *)
let write_results_json path ~figure (cfg : Vulfi.Campaign.config)
    (cells : (bool * Vulfi.Campaign.result) list) =
  let json =
    Vulfi.Json.Obj
      [
        ("schema", Vulfi.Json.String "vulfi-results-v1");
        ("figure", Vulfi.Json.String figure);
        ( "config",
          Vulfi.Json.Obj
            [
              ( "experiments_per_campaign",
                Vulfi.Json.Int cfg.Vulfi.Campaign.experiments_per_campaign );
              ("min_campaigns", Vulfi.Json.Int cfg.Vulfi.Campaign.min_campaigns);
              ("max_campaigns", Vulfi.Json.Int cfg.Vulfi.Campaign.max_campaigns);
              ( "margin_target",
                Vulfi.Json.Float cfg.Vulfi.Campaign.margin_target );
              ("seed", Vulfi.Json.Int cfg.Vulfi.Campaign.seed);
              ( "scale",
                Vulfi.Json.String (if scale_is_paper then "paper" else "quick")
              );
              ("jobs", Vulfi.Json.Int !jobs);
            ] );
        ( "cells",
          Vulfi.Json.List
            (List.map
               (fun (detectors, r) ->
                 Vulfi.Campaign.result_json ~detectors r)
               cells) );
      ]
  in
  let oc = open_out path in
  output_string oc (Vulfi.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)

let run_uninstrumented (b : Benchmarks.Harness.benchmark) target input =
  let w = b.Benchmarks.Harness.bench in
  let m = w.Vulfi.Workload.w_build target in
  let st = Interp.Machine.create (Interp.Compile.compile_module m) in
  let args, _ = w.Vulfi.Workload.w_setup ~input st in
  ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
  Interp.Machine.dyn_count st

let table1 () =
  header
    "Table I: benchmarks and average dynamic instruction count (VM \
     instructions; paper ran native x86, so magnitudes differ — the \
     per-benchmark ordering is the comparable shape)";
  Printf.printf "%-18s %-6s %-34s %-4s %14s\n" "Benchmark" "Lang"
    "Test input" "ISA" "Avg dyn instrs";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          let total = ref 0 in
          for input = 0 to w.Vulfi.Workload.w_inputs - 1 do
            total := !total + run_uninstrumented b target input
          done;
          let avg = !total / w.Vulfi.Workload.w_inputs in
          Printf.printf "%-18s %-6s %-34s %-4s %14d\n"
            w.Vulfi.Workload.w_name b.Benchmarks.Harness.language
            b.Benchmarks.Harness.input_desc (Vir.Target.name target) avg)
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks

(* ------------------------------------------------------------------ *)
(* Fig 10                                                              *)

let fig10 () =
  header
    "Fig 10: composition of vector and scalar instructions per fault-site \
     category (fraction of fault-target instructions that are vector)";
  Printf.printf "%-18s %-4s %12s %12s %12s\n" "Benchmark" "ISA" "pure-data"
    "control" "address";
  let grand = Hashtbl.create 3 in
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          let m = w.Vulfi.Workload.w_build target in
          let census = Analysis.Instmix.census m in
          let cell cat =
            let mix = List.assoc cat census in
            let old =
              try Hashtbl.find grand cat
              with Not_found -> Analysis.Instmix.empty
            in
            Hashtbl.replace grand cat
              {
                Analysis.Instmix.scalar_count =
                  old.Analysis.Instmix.scalar_count
                  + mix.Analysis.Instmix.scalar_count;
                vector_count =
                  old.Analysis.Instmix.vector_count
                  + mix.Analysis.Instmix.vector_count;
              };
            Printf.sprintf "%5.1f%% vec"
              (100.0 *. Analysis.Instmix.vector_fraction mix)
          in
          Printf.printf "%-18s %-4s %12s %12s %12s\n"
            w.Vulfi.Workload.w_name (Vir.Target.name target)
            (cell Analysis.Sites.Pure_data)
            (cell Analysis.Sites.Control)
            (cell Analysis.Sites.Address))
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks;
  (* dynamic counterpart: executed vector-instruction fraction *)
  Printf.printf "\nDynamic vector-instruction fraction (executed, input 0, AVX):\n";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      let m = w.Vulfi.Workload.w_build Vir.Target.Avx in
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
      ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
      Printf.printf "  %-18s %5.1f%% (%d of %d)\n" w.Vulfi.Workload.w_name
        (100.0
        *. float_of_int (Interp.Machine.dyn_vector_count st)
        /. float_of_int (max 1 (Interp.Machine.dyn_count st)))
        (Interp.Machine.dyn_vector_count st)
        (Interp.Machine.dyn_count st))
    Benchmarks.Registry.paper_benchmarks;
  Printf.printf
    "\nAverages across benchmarks (paper reports 67%% pure-data and 43%% \
     control vector instructions):\n";
  List.iter
    (fun cat ->
      let mix =
        try Hashtbl.find grand cat
        with Not_found -> Analysis.Instmix.empty
      in
      Printf.printf "  %-10s %5.1f%% vector\n"
        (Analysis.Sites.category_name cat)
        (100.0 *. Analysis.Instmix.vector_fraction mix))
    Analysis.Sites.all_categories

(* ------------------------------------------------------------------ *)
(* Fig 11                                                              *)

let fig11 () =
  let cfg = campaign_config () in
  header
    (Printf.sprintf
       "Fig 11: fault-injection outcomes (%d experiments/campaign, <=%d \
        campaigns/cell%s)"
       cfg.Vulfi.Campaign.experiments_per_campaign
       cfg.Vulfi.Campaign.max_campaigns
       (if scale_is_paper then ", paper scale" else ", quick scale"));
  let cells = fig11_cells () in
  (* Live progress on stderr as cells finish; the table goes to stdout
     in cell order once the sweep is done, so sequential and -j N
     outputs diff clean. *)
  let total = List.length cells in
  let t0 = Unix.gettimeofday () in
  let done_cells = ref 0 in
  let done_exps = ref 0 in
  let progress (r : Vulfi.Campaign.result) =
    incr done_cells;
    done_exps :=
      !done_exps + r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments;
    let dt = Unix.gettimeofday () -. t0 in
    (* Report.progress_line clamps the degenerate ticks (zero cells
       done, zero elapsed) instead of printing inf/nan. *)
    Printf.eprintf "%s\n%!"
      (Vulfi.Report.progress_line ~label:"fig11" ~done_cells:!done_cells
         ~total_cells:total ~done_exps:!done_exps ~elapsed_s:dt)
  in
  let results = campaign_cells ~on_cell:progress cfg cells in
  List.iter (fun r -> print_endline (Vulfi.Report.fig11_row r)) results;
  write_results_json "RESULTS_fig11.json" ~figure:"fig11" cfg
    (List.map (fun r -> (false, r)) results)

(* ------------------------------------------------------------------ *)
(* Fig 12                                                              *)

let fig12 () =
  let cfg = campaign_config () in
  header
    "Fig 12: detector efficacy + overhead on the micro-benchmarks \
     (foreach loop-invariant detectors, checked on loop exit)";
  let micro = Benchmarks.Registry.micro_benchmarks in
  let results =
    campaign_cells
      ~transform:
        (Detectors.Overhead.transform Detectors.Overhead.paper_detectors)
      ~hooks:Detectors.Runtime.hooks cfg
      (List.concat_map
         (fun (b : Benchmarks.Harness.benchmark) ->
           let w = scale_workload b.Benchmarks.Harness.bench in
           List.map
             (fun cat -> (w, Vir.Target.Avx, cat))
             Analysis.Sites.all_categories)
         micro)
  in
  (* per benchmark: its detector overhead, then its cells' rows *)
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      let ov =
        Detectors.Overhead.measure ~set:Detectors.Overhead.paper_detectors w
          Vir.Target.Avx ~input:0
      in
      Printf.printf
        "%-16s avg overhead %5.2f%% (dynamic instructions, %d detectors)\n"
        w.Vulfi.Workload.w_name
        (100.0 *. Detectors.Overhead.overhead_fraction ov)
        ov.Detectors.Overhead.detectors_inserted;
      List.iter
        (fun (r : Vulfi.Campaign.result) ->
          if r.Vulfi.Campaign.c_workload = w.Vulfi.Workload.w_name then
            print_endline ("  " ^ Vulfi.Report.fig12_row r))
        results)
    micro;
  write_results_json "RESULTS_fig12.json" ~figure:"fig12" cfg
    (List.map (fun r -> (true, r)) results)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  let cfg = campaign_config () in
  header "Ablation 1: detector placement (exit-only vs every-iteration)";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun (label, set) ->
          let ov =
            Detectors.Overhead.measure ~set b.Benchmarks.Harness.bench
              Vir.Target.Avx ~input:0
          in
          let r =
            campaign_run
              ~transform:(Detectors.Overhead.transform set)
              ~hooks:Detectors.Runtime.hooks cfg w Vir.Target.Avx
              Analysis.Sites.Control
          in
          Printf.printf
            "%-16s %-16s overhead %6.2f%%  SDC-detection %5.1f%%\n"
            w.Vulfi.Workload.w_name label
            (100.0 *. Detectors.Overhead.overhead_fraction ov)
            (100.0 *. Vulfi.Campaign.sdc_detection_rate r))
        [
          ("exit-only", Detectors.Overhead.paper_detectors);
          ( "every-iteration",
            {
              Detectors.Overhead.with_foreach = true;
              with_uniform = false;
              placement = `Every_iteration;
              strengthen = false;
            } );
        ])
    Benchmarks.Registry.micro_benchmarks;
  header
    "Ablation 2: masked-lane awareness (VULFI skips masked-off lanes; a \
     mask-oblivious injector wastes injections on dead lanes). Workload: \
     vcopy with n = 9, so 7 of 8 partial-block lanes are masked off.";
  let tiny_vcopy =
    {
      Vulfi.Workload.w_name = "vcopy-n9";
      w_fn = "vcopy_ispc";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build =
        (fun t ->
          Minispc.Driver.compile t
            "export void vcopy_ispc(uniform int a1[], uniform int a2[], \
             uniform int n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }");
      w_setup =
        (fun ~input:_ st ->
          let n = 9 in
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
          Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i));
          ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_i32 =
                  [ Interp.Memory.read_i32_array mem a2 n ];
              } ));
    }
  in
  List.iter
    (fun (label, respect) ->
      let r =
        Vulfi.Campaign.run ~respect_masks:respect cfg tiny_vcopy
          Vir.Target.Avx Analysis.Sites.Pure_data
      in
      Printf.printf "%-24s SDC %5.1f%%  benign %5.1f%%  crash %5.1f%%\n"
        label
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.benign_rate r)
        (100.0 *. Vulfi.Campaign.crash_rate r))
    [ ("mask-aware (VULFI)", true); ("mask-oblivious", false) ];
  header
    "Ablation 3: uniform-broadcast XOR detector (§III-B — future work in \
     the paper, implemented here). Workload: a scale kernel whose \
     broadcast multiplier feeds every lane (pure-data faults can land in \
     the broadcast register).";
  let scale_w =
    {
      Vulfi.Workload.w_name = "scale";
      w_fn = "scale";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build =
        (fun t ->
          Minispc.Driver.compile t
            "export void scale(uniform float a[], uniform float s, \
             uniform int n) { foreach (i = 0 ... n) { a[i] = a[i] * s; } \
             }");
      w_setup =
        (fun ~input:_ st ->
          let n = 64 in
          let mem = Interp.Machine.memory st in
          let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
          Interp.Memory.write_f32_array mem a
            (Array.init n (fun i -> float_of_int i *. 0.5));
          ( [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_f32 2.5;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_f32 =
                  [ Interp.Memory.read_f32_array mem a n ];
              } ));
    }
  in
  List.iter
    (fun (label, set) ->
      let r =
        campaign_run
          ~transform:(Detectors.Overhead.transform set)
          ~hooks:Detectors.Runtime.hooks cfg scale_w Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Printf.printf
        "%-24s flagged %d of %d experiments (SDC-detection %5.1f%%)\n"
        label r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments
        (100.0 *. Vulfi.Campaign.sdc_detection_rate r))
    [
      ("foreach only", Detectors.Overhead.paper_detectors);
      ("foreach + uniform-xor", Detectors.Overhead.all_detectors);
    ];
  header
    "Ablation 4: fault models beyond the paper's single bit flip \
     (Blackscholes, AVX, pure-data)";
  let bs = List.nth Benchmarks.Registry.paper_benchmarks 2 in
  let wbs = scale_workload bs.Benchmarks.Harness.bench in
  List.iter
    (fun kind ->
      let r =
        Vulfi.Campaign.run ~fault_kind:kind cfg wbs Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Printf.printf "%-16s SDC %5.1f%%  benign %5.1f%%  crash %5.1f%%\n"
        (Vulfi.Runtime.fault_kind_name kind)
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.benign_rate r)
        (100.0 *. Vulfi.Campaign.crash_rate r))
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 2;
      Vulfi.Runtime.Multi_bit_flip 4;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ];
  header
    "Ablation 5: strengthened exit invariant (new_counter == aligned_end \
     on exit, extension) vs the paper's Fig 8 invariants";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun (label, set) ->
          let r =
            campaign_run
              ~transform:(Detectors.Overhead.transform set)
              ~hooks:Detectors.Runtime.hooks cfg w Vir.Target.Avx
              Analysis.Sites.Control
          in
          Printf.printf "%-16s %-22s SDC-detection %5.1f%% (%d / %d)\n"
            w.Vulfi.Workload.w_name label
            (100.0 *. Vulfi.Campaign.sdc_detection_rate r)
            r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected_sdc
            r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc)
        [
          ("Fig 8 invariants", Detectors.Overhead.paper_detectors);
          ("strengthened (==)", Detectors.Overhead.strengthened_detectors);
        ])
    Benchmarks.Registry.micro_benchmarks;
  header
    "Ablation 6: manually inserted source-level asserts (the paper's \
     introduction motif) — equality asserts in a checked vector copy \
     catch pure-data faults that no compiler-derived detector sees";
  let checked_src =
    "export void checked_copy(uniform int a1[], uniform int a2[], uniform \
     int n) { foreach (i = 0 ... n) { int v = a1[i]; a2[i] = v; \
     assert(a2[i] == v); } }"
  in
  let plain_src =
    "export void checked_copy(uniform int a1[], uniform int a2[], uniform \
     int n) { foreach (i = 0 ... n) { int v = a1[i]; a2[i] = v; } }"
  in
  let mk_workload src =
    {
      Vulfi.Workload.w_name = "checked_copy";
      w_fn = "checked_copy";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build = (fun t -> Minispc.Driver.compile t src);
      w_setup =
        (fun ~input:_ st ->
          let n = 64 in
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
          Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i * 3));
          ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_i32 =
                  [ Interp.Memory.read_i32_array mem a2 n ];
              } ));
    }
  in
  List.iter
    (fun (label, src) ->
      let r =
        campaign_run ~hooks:Detectors.Runtime.hooks cfg
          (mk_workload src) Vir.Target.Avx Analysis.Sites.Pure_data
      in
      Printf.printf "%-24s SDC %5.1f%%  SDC-detection %5.1f%% (%d / %d)\n"
        label
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.sdc_detection_rate r)
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected_sdc
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc)
    [ ("with asserts", checked_src); ("without asserts", plain_src) ]

(* ------------------------------------------------------------------ *)
(* VM throughput: dynamic instructions per second                      *)

(* Measures raw interpreter throughput per benchmark (uninstrumented,
   input 0, AVX) and writes BENCH_interp.json so successive PRs can
   track the perf trajectory. VULFI_INTERP_REPS overrides the
   repetition count (CI smoke runs use 1). *)
(* Aggregate bytes allocated per dynamic instruction of the PR 4
   (pre-destination-passing) interpreter, measured with this harness on
   the same workloads right before the rewrite landed. *)
let baseline_pre_dps_bpi = "78.62"

let interp_bench () =
  header
    (Printf.sprintf
       "VM throughput: dynamic instructions / second per benchmark \
        (uninstrumented, input 0, AVX, schedule %s, fusion %s)"
       (if !Vulfi.Experiment.schedule_enabled then "on" else "off")
       (if !Vulfi.Experiment.fusion_enabled then "on" else "off"));
  let reps = getenv_int "VULFI_INTERP_REPS" 5 in
  (* VULFI_BENCH_ONLY=substr restricts the table to matching rows: used
     by the profiling recipe in EXPERIMENTS.md to isolate one workload. *)
  let benches =
    match Sys.getenv_opt "VULFI_BENCH_ONLY" with
    | None -> Benchmarks.Registry.all
    | Some pat ->
      List.filter
        (fun (b : Benchmarks.Harness.benchmark) ->
          let name =
            String.lowercase_ascii b.Benchmarks.Harness.bench.Vulfi.Workload.w_name
          in
          let pat = String.lowercase_ascii pat in
          let n = String.length name and p = String.length pat in
          let rec at i = i + p <= n && (String.sub name i p = pat || at (i + 1)) in
          at 0)
        Benchmarks.Registry.all
  in
  let chains_annotated = ref 0 and chains_fused = ref 0 in
  let sched_moves = ref 0 in
  let fused_hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rows =
    List.map
      (fun (b : Benchmarks.Harness.benchmark) ->
        let w = (scale_workload b.Benchmarks.Harness.bench) in
        let m = w.Vulfi.Workload.w_build Vir.Target.Avx in
        (* Same pass order as Experiment.prepare: schedule, then fuse. *)
        let moves =
          if !Vulfi.Experiment.schedule_enabled then
            Passes.Schedule.run_module m
          else 0
        in
        sched_moves := !sched_moves + moves;
        if !Vulfi.Experiment.fusion_enabled then begin
          chains_annotated := !chains_annotated + Passes.Fuse.run_module m;
          if Sys.getenv_opt "VULFI_FUSION_STATS" <> None then begin
            Printf.printf "%s: sched_moves=%d" w.Vulfi.Workload.w_name moves;
            List.iter
              (fun (k, n) -> Printf.printf " %s=%d" k n)
              (Passes.Fuse.rule_stats m);
            List.iter
              (fun (l, n) -> Printf.printf " len%d=%d" l n)
              (Passes.Fuse.length_hist m);
            print_newline ()
          end
        end;
        let code = Interp.Compile.compile_module m in
        chains_fused := !chains_fused + Interp.Compile.fused_chain_count code;
        List.iter
          (fun (l, n) ->
            Hashtbl.replace fused_hist l
              (n + Option.value ~default:0 (Hashtbl.find_opt fused_hist l)))
          (Interp.Compile.fused_length_hist code);
        (* Timed region = Machine.run only: the metric is VM execution
           throughput; per-experiment state construction and input
           generation are excluded (identically for every interpreter
           under comparison). Each run still gets a fresh state, like a
           campaign experiment does. *)
        let prepare () =
          let st = Interp.Machine.create code in
          let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
          (st, args)
        in
        let dyn =
          let st, args = prepare () in
          ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
          Interp.Machine.dyn_count st
        in
        (* Warm-up done. Tiny kernels are batched so a measurement spans
           well above timer resolution; the *fastest* batch is kept: on
           a shared/noisy host the minimum is the only robust estimator
           of the true cost (preemption only ever adds time). *)
        let batch =
          max 1 (min 512 (1 + (20_000 / max 1 dyn)))
        in
        let fn = w.Vulfi.Workload.w_fn in
        let best = ref infinity in
        let best_bytes = ref infinity in
        for _ = 1 to reps do
          let prepared = Array.init batch (fun _ -> prepare ()) in
          (* drain the allocation debt of the untimed construction above
             so its minor-GC work cannot land inside the timed window *)
          Gc.minor ();
          let a0 = Gc.allocated_bytes () in
          let t0 = Unix.gettimeofday () in
          Array.iter
            (fun (st, args) -> ignore (Interp.Machine.run st fn args))
            prepared;
          let t1 = Unix.gettimeofday () in
          (* Allocation across the same timed window. The count is
             deterministic per run; the minimum across reps simply
             rejects any stray allocation from a signal/GC hook. *)
          let db = (Gc.allocated_bytes () -. a0) /. float_of_int batch in
          let dt = (t1 -. t0) /. float_of_int batch in
          if dt < !best then best := dt;
          if db < !best_bytes then best_bytes := db
        done;
        let mips =
          if !best > 0.0 then float_of_int dyn /. !best /. 1.0e6 else 0.0
        in
        let bpi =
          if dyn > 0 then !best_bytes /. float_of_int dyn else 0.0
        in
        Printf.printf
          "%-18s %10d dyn instrs  %8.3f ms/run  %8.2f M instr/s  %7.2f B/instr\n"
          w.Vulfi.Workload.w_name dyn (!best *. 1000.0) mips bpi;
        (w.Vulfi.Workload.w_name, dyn, reps, !best, mips, bpi))
      benches
  in
  let total_dyn =
    List.fold_left (fun acc (_, d, _, _, _, _) -> acc + d) 0 rows
  in
  let total_dt =
    List.fold_left (fun acc (_, _, _, t, _, _) -> acc +. t) 0.0 rows
  in
  let total_bytes =
    List.fold_left
      (fun acc (_, d, _, _, _, b) -> acc +. (b *. float_of_int d))
      0.0 rows
  in
  let agg_mips =
    if total_dt > 0.0 then float_of_int total_dyn /. total_dt /. 1.0e6 else 0.0
  in
  let agg_bpi =
    if total_dyn > 0 then total_bytes /. float_of_int total_dyn else 0.0
  in
  Printf.printf "%-18s %33s  %8.2f M instr/s  %7.2f B/instr\n" "AGGREGATE" ""
    agg_mips agg_bpi;
  Printf.printf "fused chains: %d of %d annotated; scheduler moves: %d\n"
    !chains_fused !chains_annotated !sched_moves;
  (* Allocation-regression tripwire for the one workload that used to
     blow the aggregate gate (23 B/instr before the memory fast paths):
     fail loudly right here rather than letting CI bisect the
     aggregate. *)
  List.iter
    (fun (name, _, _, _, _, bpi) ->
      if name = "ConjugateGradient" && bpi > 12.0 then begin
        Printf.eprintf
          "FAIL: ConjugateGradient allocates %.2f B/instr (> 12.0 \
           regression gate)\n"
          bpi;
        exit 1
      end)
    rows;
  let hist_rows =
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) fused_hist []
    |> List.sort compare
  in
  let oc = open_out "BENCH_interp.json" in
  Printf.fprintf oc "{\n  \"schema\": \"vulfi-interp-bench-v4\",\n";
  Printf.fprintf oc "  \"reps\": %d,\n" reps;
  Printf.fprintf oc "  \"schedule\": %b,\n" !Vulfi.Experiment.schedule_enabled;
  Printf.fprintf oc "  \"fusion\": %b,\n" !Vulfi.Experiment.fusion_enabled;
  Printf.fprintf oc "  \"sched_moves\": %d,\n" !sched_moves;
  Printf.fprintf oc "  \"chains_annotated\": %d,\n" !chains_annotated;
  Printf.fprintf oc "  \"chains_fused\": %d,\n" !chains_fused;
  Printf.fprintf oc "  \"chain_length_hist\": [%s],\n"
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "[%d, %d]" l n) hist_rows));
  Printf.fprintf oc "  \"aggregate_minstr_per_s\": %.3f,\n" agg_mips;
  Printf.fprintf oc "  \"aggregate_bytes_per_instr\": %.3f,\n" agg_bpi;
  (* Pre-DPS reference point (PR 4 tree, measured with this very
     harness before the destination-passing rewrite) so the before/after
     of the allocation work stays in the artifact. *)
  Printf.fprintf oc
    "  \"baseline_pre_dps\": {\"aggregate_minstr_per_s\": 26.114, \
     \"aggregate_bytes_per_instr\": %s},\n"
    baseline_pre_dps_bpi;
  (* Pre-fusion reference point (PR 6 tree, same harness, right before
     the peephole fusion backend landed). *)
  Printf.fprintf oc
    "  \"baseline_pre_fusion\": {\"aggregate_minstr_per_s\": 50.095, \
     \"aggregate_bytes_per_instr\": 6.129},\n";
  (* Pre-superblock reference point (PR 8 tree, same harness, right
     before the list scheduler and whole-superblock kernels landed). *)
  Printf.fprintf oc
    "  \"baseline_pre_superblock\": {\"aggregate_minstr_per_s\": 70.325, \
     \"aggregate_bytes_per_instr\": 4.275},\n";
  Printf.fprintf oc "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, dyn, r, dt, mips, bpi) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"dyn_instrs\": %d, \"reps\": %d, \
         \"best_seconds_per_run\": %.9f, \"minstr_per_s\": %.3f, \
         \"bytes_per_instr\": %.3f}%s\n"
        name dyn r dt mips bpi
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_interp.json\n"

(* ------------------------------------------------------------------ *)

let () =
  (* peel "-j N" / "--trace FILE" off the argument list; the rest are
     experiment names *)
  let trace_path = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse_args acc rest
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %S\n" n;
        exit 2)
    | "-j" :: [] ->
      Printf.eprintf "-j expects a worker count\n";
      exit 2
    | "--trace" :: f :: rest ->
      trace_path := Some f;
      parse_args acc rest
    | "--trace" :: [] ->
      Printf.eprintf "--trace expects a file name\n";
      exit 2
    | flag :: rest when List.mem_assoc flag executor_flags ->
      let e = List.assoc flag executor_flags in
      (* the default is no flag's executor, so any other earlier value
         came from a different executor flag *)
      if !executor <> Vulfi.Campaign.Checkpointed && !executor <> e then begin
        let earlier, _ =
          List.find (fun (_, e') -> e' = !executor) executor_flags
        in
        Printf.eprintf "%s and %s are mutually exclusive\n" earlier flag;
        exit 2
      end;
      executor := e;
      parse_args acc rest
    | "--no-fusion" :: rest ->
      Vulfi.Experiment.fusion_enabled := false;
      parse_args acc rest
    | "--no-schedule" :: rest ->
      Vulfi.Experiment.schedule_enabled := false;
      parse_args acc rest
    | cmd :: rest -> parse_args (cmd :: acc) rest
  in
  let what =
    match
      parse_args []
        (Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
    with
    | [] -> [ "table1"; "fig10"; "fig11"; "fig12"; "ablation" ]
    | cmds -> cmds
  in
  the_sink := Option.map Vulfi.Trace.to_file !trace_path;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Option.iter Vulfi.Trace.close !the_sink)
    (fun () ->
      List.iter
        (fun cmd ->
          match cmd with
          | "table1" -> table1 ()
          | "fig10" -> fig10 ()
          | "fig11" -> fig11 ()
          | "fig12" -> fig12 ()
          | "ablation" -> ablation ()
          | "interp" -> interp_bench ()
          | other ->
            Printf.eprintf
              "unknown experiment %S (try table1 fig10 fig11 fig12 ablation \
               interp)\n"
              other;
            exit 2)
        what);
  Printf.printf "\ntotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0)
