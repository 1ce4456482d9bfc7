(** Fault-injection campaigns (paper §IV-D).

    A campaign is [experiments_per_campaign] independent experiments
    (100 in the paper); its SDC rate is one statistical sample.
    Campaigns repeat until the sample distribution is near normal and
    the 95% margin of error drops below the target (±3%), bounded by
    [min_campaigns]/[max_campaigns].

    All randomness follows the pure {!Seed} schedule: an experiment's
    input, fault site and bit choice are functions of
    (seed, workload, target, category, campaign, experiment) alone, so

    - distinct cells of the same workload draw independent streams
      (the paper's per-cell samples are statistically independent), and
    - cells are independent units of work: [run_cells] runs them on a
      domain pool with results and traces bit-identical to sequential
      [run]s. *)

type config = {
  experiments_per_campaign : int;
  min_campaigns : int;
  max_campaigns : int;
  margin_target : float;  (** e.g. 0.03 *)
  seed : int;
}

(* The paper's configuration: 100-experiment campaigns, at least 20 of
   them, ±3% margin at 95% confidence. *)
let paper_config =
  {
    experiments_per_campaign = 100;
    min_campaigns = 20;
    max_campaigns = 40;
    margin_target = 0.03;
    seed = 0xC0FFEE;
  }

(* A scaled-down configuration for quick runs of the harness. *)
let quick_config =
  {
    experiments_per_campaign = 25;
    min_campaigns = 4;
    max_campaigns = 8;
    margin_target = 0.10;
    seed = 0xC0FFEE;
  }

type totals = {
  n_experiments : int;
  n_sdc : int;
  n_benign : int;
  n_crash : int;
  n_detected : int;      (** runs flagged by a detector *)
  n_detected_sdc : int;  (** SDC runs flagged by a detector *)
}

let empty_totals =
  {
    n_experiments = 0;
    n_sdc = 0;
    n_benign = 0;
    n_crash = 0;
    n_detected = 0;
    n_detected_sdc = 0;
  }

let add_outcome t (r : Experiment.run_result) =
  {
    n_experiments = t.n_experiments + 1;
    n_sdc = (t.n_sdc + match r.Experiment.r_outcome with Outcome.Sdc -> 1 | _ -> 0);
    n_benign =
      (t.n_benign + match r.Experiment.r_outcome with Outcome.Benign -> 1 | _ -> 0);
    n_crash =
      (t.n_crash + match r.Experiment.r_outcome with Outcome.Crash _ -> 1 | _ -> 0);
    n_detected = (t.n_detected + if r.Experiment.r_detected then 1 else 0);
    n_detected_sdc =
      (t.n_detected_sdc
      +
      if r.Experiment.r_detected && r.Experiment.r_outcome = Outcome.Sdc then 1
      else 0);
  }

type result = {
  c_workload : string;
  c_target : Vir.Target.t;
  c_category : Analysis.Sites.category;
  c_campaigns : int;
  c_sdc_rates : float list;  (** one sample per campaign *)
  c_totals : totals;
  c_margin : float;
  c_near_normal : bool;
  c_static_sites : int;
  c_avg_dynamic_sites : float;
  c_avg_dynamic_instrs : float;
  c_golden_runs : int;
      (** distinct inputs the schedule drew — the golden runs any
          executor must perform at least once *)
  c_golden_reused : int;
      (** experiments that reused a cached golden run. Both counters
          are functions of the seed schedule alone (never of physical
          cache behaviour), so they are identical between the legacy
          and checkpointed executors, sequential or [-j N]. *)
  c_checkpoints : int;
      (** machine-state checkpoints the fast-forward executor lays for
          this cell (summed plan length over its distinct inputs) *)
  c_ff_resumed : int;
      (** experiments whose injection site is at or past the first
          checkpoint of its input's plan — the runs the fast-forward
          executor resumes rather than replays. Like the golden
          counters, both are pure functions of the seed schedule, so
          every executor reports the same values and traces stay
          byte-identical across executors. *)
  c_pruned : int;
      (** experiments with at least one plan checkpoint site strictly
          after their injection site — the runs the converge-pruned
          executor can terminate early (whether a given run physically
          prunes depends on when its fault converges; that physical
          count is bench-only telemetry, {!Experiment.prune_stats}) *)
  c_prune_checks : int;
      (** total (experiment, plan site) pairs with the site strictly
          after the injection site — the convergence comparisons the
          converge-pruned executor can at most perform. Both are pure
          functions of the seed schedule, reported identically by all
          four executors. *)
}

let rate part total =
  if total = 0 then 0.0 else float_of_int part /. float_of_int total

let sdc_rate r = rate r.c_totals.n_sdc r.c_totals.n_experiments
let benign_rate r = rate r.c_totals.n_benign r.c_totals.n_experiments
let crash_rate r = rate r.c_totals.n_crash r.c_totals.n_experiments

(* Fraction of SDC-producing experiments that a detector flagged —
   the paper's "SDC detection rate" (Fig 12). *)
let sdc_detection_rate r = rate r.c_totals.n_detected_sdc r.c_totals.n_sdc

(* The campaign machinery builds one hook record per resolved input
   from this factory. Hooks keep no state (detections are machine
   state), so every run on that input shares the record. *)
type hooks_factory = unit -> Experiment.hooks

let no_hooks_factory : hooks_factory = fun () -> Experiment.no_hooks

let cell_of cfg (w : Workload.t) target category =
  Seed.cell ~seed:cfg.seed ~workload:w.Workload.w_name ~target ~category

let input_of (w : Workload.t) (ex : Seed.exp) =
  Seed.uniform ex.Seed.input_key w.Workload.w_inputs

(* The 1-based injection site experiment [ex] draws among [dyn_sites]
   live dynamic sites. The seed schedule (checkpoint plans), the
   injection-order sort, every executor's faulty run and [finalize]'s
   counters all draw through here: plans, resume order and the trace's
   [ff_resumed]/[pruned] counters are only right while they agree. *)
let site_of (ex : Seed.exp) ~dyn_sites =
  1 + Seed.uniform ex.Seed.site_key dyn_sites

let vacuous_benign =
  {
    Experiment.r_outcome = Outcome.Benign;
    r_injection = None;
    r_detected = false;
    r_dyn_instrs = 0;
  }

(* Every injection site the full schedule (all [max_campaigns]) draws
   for [input], in schedule order. A pure function of the seed
   schedule and the input's (deterministic) dynamic-site count: every
   executor — and the trace replayer — derives the identical list,
   which is what makes checkpoint placement deterministic. *)
let schedule_sites cfg cell (w : Workload.t) ~input ~dyn_sites : int list =
  if dyn_sites <= 0 then []
  else begin
    let sites = ref [] in
    for c = 0 to cfg.max_campaigns - 1 do
      for e = 0 to cfg.experiments_per_campaign - 1 do
        let ex = Seed.experiment cell ~campaign:c ~experiment:e in
        if input_of w ex = input then
          sites := site_of ex ~dyn_sites :: !sites
      done
    done;
    List.rev !sites
  end

(* The fast-forward checkpoint plan for one input: distinct scheduled
   sites, ascending, thinned to the executor's cap. *)
let plan_for cfg cell w ~input ~dyn_sites : int array =
  Experiment.checkpoint_plan (schedule_sites cfg cell w ~input ~dyn_sites)

(* The four executors a campaign can run on. All produce bit-identical
   results, digests and traces; they differ only in how much redundant
   prefix work they re-execute per experiment.

   [Legacy] is §IV-B taken literally: every experiment is two full
   executions — a fault-free profiling run, then the faulty run — each
   on a freshly built machine with [w_setup] re-applied.

   [Checkpointed] memoizes the golden run per (cell, input) and
   replaces the rebuild with a post-setup memory-snapshot restore; the
   faulty run still replays the whole prefix up to its injection site.

   [Fast_forward] additionally lays full machine-state checkpoints at
   the cell's scheduled injection sites during one instrumented golden
   replay and resumes every faulty run from the nearest checkpoint at
   or before its site — only the post-injection suffix executes.

   [Converge_pruned] rides the fast-forward machinery (same plans,
   same resume points, same execution order) and additionally runs
   each faulty suffix under position tracking: at every later
   checkpoint site it compares the machine against the golden state
   captured there ({!Interp.Machine.state_equal} — counters, call
   stack, live registers, dirty-span-restricted memory) and, on a
   match, terminates immediately and splices the golden outcome. The
   splice is provably identical to running the suffix out (DESIGN.md,
   convergence soundness), so results and traces stay byte-identical.

   The three non-legacy executors are settings of one faulty run,
   [Experiment.faulty_run_pruned] ([Checkpointed]: no checkpoints;
   [Fast_forward]: pruning off), and all three execute each campaign's
   experiments in injection order. Detector cells run on every one of
   them: detections are machine state, so checkpoints carry them and
   convergence checks compare them. *)
type executor = Legacy | Checkpointed | Fast_forward | Converge_pruned

(* Resolve one distinct input of a cell on [executor]: its golden run
   (for scheduling and accounting) and the faulty half every
   experiment on that input runs. [Checkpointed] builds the prepared
   input (machine + post-setup snapshot + golden run) once; the
   fast-forward executors additionally lay the input's checkpoint plan
   with one tracked replay; the paper protocol performs its own
   profiling run in every experiment — that recomputation is exactly
   what it measures. An input without live fault sites is vacuously
   benign. *)
let resolve_input cfg cell (w : Workload.t) ~executor
    ~(hooks : hooks_factory) ~respect_masks ?fault_kind prepared ~input :
    Experiment.golden * (Seed.exp -> Experiment.run_result) =
  let hooks = hooks () in
  let live (g : Experiment.golden) faulty (ex : Seed.exp) =
    if g.Experiment.g_dyn_sites = 0 then vacuous_benign
    else
      faulty
        ~dynamic_site:(site_of ex ~dyn_sites:g.Experiment.g_dyn_sites)
        ~seed:ex.Seed.bit_seed
  in
  let golden_run () =
    Experiment.golden_run ~hooks ~respect_masks prepared ~input
  in
  match executor with
  | Legacy ->
    ( golden_run (),
      fun ex ->
        let golden = golden_run () in
        live golden
          (fun ~dynamic_site ~seed ->
            Experiment.faulty_run ~hooks ~respect_masks ?fault_kind
              prepared ~golden ~dynamic_site ~seed)
          ex )
  | Checkpointed | Fast_forward | Converge_pruned ->
    let pi =
      Experiment.prepare_input ~hooks ~respect_masks prepared ~input
    in
    let g = pi.Experiment.pi_golden in
    let plan =
      if executor = Checkpointed then [||]
      else plan_for cfg cell w ~input ~dyn_sites:g.Experiment.g_dyn_sites
    in
    let ff =
      Experiment.lay_checkpoints ~hooks ~respect_masks prepared ~pi ~plan
    in
    let prune = executor = Converge_pruned in
    ( g,
      live g (fun ~dynamic_site ~seed ->
          Experiment.faulty_run_pruned ~hooks ~respect_masks ?fault_kind
            ~prune prepared ~ff ~dynamic_site ~seed) )

(* Run [f], timing it only when the sink asked for wall times; the
   clock syscall is skipped entirely on the deterministic (default)
   path. *)
let timed ~timings f =
  if timings then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  end
  else (f (), 0.0)

(* What a finished campaign round leaves for the trace, in experiment
   order: the input each experiment drew, that input's golden
   dynamic-site count, and the result with its wall time (0 unless the
   sink asked for timings). About a hundred bytes per experiment. *)
type round = {
  inputs : int array;
  site_counts : int array;
  results : (Experiment.run_result * float) array;
}

let timings_of = function Some s -> Trace.timings s | None -> false

(* Emit campaign [campaign]'s experiment records in experiment order. *)
let emit_round sink (w : Workload.t) target category ~campaign round =
  match sink with
  | None -> ()
  | Some s ->
    let timings = Trace.timings s in
    Array.iteri
      (fun e (r, wall) ->
        Trace.emit s
          (Trace.experiment_record ~workload:w.Workload.w_name ~target
             ~category ~campaign ~experiment:e ~input:round.inputs.(e)
             ~golden_sites:round.site_counts.(e) ~result:r
             ?wall_s:(if timings then Some wall else None) ()))
      round.results

(* The adaptive stopping protocol of one cell. [run_campaign c]
   returns campaign [c]'s run results in experiment order, so every
   decision below — and hence the whole schedule — is a function of
   the seed schedule alone, whichever domain runs the cell. *)
let protocol cfg ~run_campaign =
  let totals = ref empty_totals in
  let sdc_rates = ref [] in
  let campaigns = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let results = run_campaign !campaigns in
    let campaign_totals = Array.fold_left add_outcome empty_totals results in
    Array.iter (fun r -> totals := add_outcome !totals r) results;
    incr campaigns;
    sdc_rates :=
      rate campaign_totals.n_sdc campaign_totals.n_experiments :: !sdc_rates;
    let margin = Stats.margin_of_error !sdc_rates in
    let normal = Stats.near_normal !sdc_rates in
    if
      !campaigns >= cfg.max_campaigns
      || (!campaigns >= cfg.min_campaigns
         && margin <= cfg.margin_target
         && normal)
    then continue_ := false
  done;
  (!campaigns, !sdc_rates, !totals)

let finalize cfg cell (prepared : Experiment.prepared) (w : Workload.t)
    target category (campaigns, sdc_rates, totals) golden_cache : result =
  (* Sort goldens by input so the float accumulation order does not
     depend on hash-table layout (and hence on execution order). *)
  let goldens =
    List.sort
      (fun a b -> compare a.Experiment.g_input b.Experiment.g_input)
      (Hashtbl.fold (fun _ g acc -> g :: acc) golden_cache [])
  in
  let avg f =
    match goldens with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun a g -> a +. float_of_int (f g)) 0.0 goldens
      /. float_of_int (List.length goldens)
  in
  let golden_runs = List.length goldens in
  (* Fast-forward accounting, recomputed from the schedule (never from
     what any executor physically did) so all four executors report
     identical counters: the checkpoints laid per distinct input, and
     the experiments whose site reaches the first checkpoint of its
     input's plan — exactly the runs [Experiment.faulty_run_pruned]
     resumes on a laid input. *)
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (g : Experiment.golden) ->
      if g.Experiment.g_dyn_sites > 0 then
        Hashtbl.replace plans g.Experiment.g_input
          (plan_for cfg cell w ~input:g.Experiment.g_input
             ~dyn_sites:g.Experiment.g_dyn_sites))
    goldens;
  let checkpoints =
    Hashtbl.fold (fun _ p acc -> acc + Array.length p) plans 0
  in
  let ff_resumed = ref 0 in
  let pruned = ref 0 in
  let prune_checks = ref 0 in
  for c = 0 to campaigns - 1 do
    for e = 0 to cfg.experiments_per_campaign - 1 do
      let ex = Seed.experiment cell ~campaign:c ~experiment:e in
      let input = input_of w ex in
      match Hashtbl.find_opt plans input with
      | Some plan when Array.length plan > 0 ->
        let g : Experiment.golden = Hashtbl.find golden_cache input in
        let site = site_of ex ~dyn_sites:g.Experiment.g_dyn_sites in
        if site >= plan.(0) then incr ff_resumed;
        (* Convergence-pruning opportunity: plan sites strictly after
           the injection site. Schedule-derived upper bounds, like the
           counters above — never what the executor physically did. *)
        let after =
          Array.fold_left
            (fun n s -> if s > site then n + 1 else n)
            0 plan
        in
        if after > 0 then incr pruned;
        prune_checks := !prune_checks + after
      | _ -> ()
    done
  done;
  {
    c_workload = w.Workload.w_name;
    c_target = target;
    c_category = category;
    c_campaigns = campaigns;
    c_sdc_rates = List.rev sdc_rates;
    c_totals = totals;
    c_margin = Stats.margin_of_error sdc_rates;
    c_near_normal = Stats.near_normal sdc_rates;
    c_static_sites = Instrument.static_site_count prepared.Experiment.p_instr;
    c_avg_dynamic_sites = avg (fun g -> g.Experiment.g_dyn_sites);
    c_avg_dynamic_instrs = avg (fun g -> g.Experiment.g_dyn_instrs);
    c_golden_runs = golden_runs;
    c_golden_reused = totals.n_experiments - golden_runs;
    c_checkpoints = checkpoints;
    c_ff_resumed = !ff_resumed;
    c_pruned = !pruned;
    c_prune_checks = !prune_checks;
  }

(* JSON view of a result — the per-cell summary record of a trace, and
   the cell entry of the RESULTS_*.json exports. [detectors] records
   whether detector hooks were attached during the campaign. *)
let result_json ?(detectors = false) (r : result) : Json.t =
  Trace.summary_record ~workload:r.c_workload ~target:r.c_target
    ~category:r.c_category ~detectors ~campaigns:r.c_campaigns
    ~sdc_rates:r.c_sdc_rates ~n_experiments:r.c_totals.n_experiments
    ~n_sdc:r.c_totals.n_sdc ~n_benign:r.c_totals.n_benign
    ~n_crash:r.c_totals.n_crash ~n_detected:r.c_totals.n_detected
    ~n_detected_sdc:r.c_totals.n_detected_sdc ~margin:r.c_margin
    ~near_normal:r.c_near_normal ~static_sites:r.c_static_sites
    ~avg_dyn_sites:r.c_avg_dynamic_sites
    ~avg_dyn_instrs:r.c_avg_dynamic_instrs ~golden_runs:r.c_golden_runs
    ~golden_reused:r.c_golden_reused ~checkpoints:r.c_checkpoints
    ~ff_resumed:r.c_ff_resumed ~pruned:r.c_pruned
    ~prune_checks:r.c_prune_checks

let executor_name = function
  | Legacy -> "legacy"
  | Checkpointed -> "checkpointed"
  | Fast_forward -> "fast-forward"
  | Converge_pruned -> "converge-pruned"

(* Every executor runs detector cells as asked, so this is the
   identity; the campaign benchmark still calls it. *)
let effective_executor ~detectors:_ (executor : executor) = executor

(* The order a campaign's experiments execute in: schedule order for
   the [Legacy] oracle; (input, injection site) order for the resume
   executors, so consecutive runs of one input resume from
   monotonically advancing checkpoints (each restore is then a cheap
   dirty-span rollback of the most recent image instead of a full
   copy). Results are un-permuted afterwards — experiments are
   independent, so execution order never changes what they compute. *)
let execution_order (executor : executor) (exps : Seed.exp array)
    (goldens : Experiment.golden array) : int array =
  let n = Array.length exps in
  let order = Array.init n Fun.id in
  if executor <> Legacy then begin
    let keys =
      Array.init n (fun e ->
          let g = goldens.(e) in
          let site =
            if g.Experiment.g_dyn_sites = 0 then 0
            else site_of exps.(e) ~dyn_sites:g.Experiment.g_dyn_sites
          in
          (g.Experiment.g_input, site, e))
    in
    Array.sort (fun a b -> compare keys.(a) keys.(b)) order
  end;
  order

(* The campaign protocol for one (workload, target, site-category)
   cell, run sequentially on the calling domain — the one core behind
   both [run] and [run_cells]. Everything the cell builds (prepared
   module, goldens, prepared inputs, laid checkpoints) lives and dies
   inside this call, so it never crosses domains, and consecutive
   experiments of an input restore the checkpoint image the previous
   one left. [on_round c round] receives each finished round in
   campaign order. *)
let run_cell ?transform ~hooks ~respect_masks ?fault_kind ~executor
    ~timings ~on_round (cfg : config) (w : Workload.t) target category :
    result =
  let prepared = Experiment.prepare ?transform w target category in
  let cell = cell_of cfg w target category in
  let golden_cache = Hashtbl.create 8 in
  let faulty_cache = Hashtbl.create 8 in
  let golden input =
    match Hashtbl.find_opt golden_cache input with
    | Some g -> g
    | None ->
      let g, faulty =
        resolve_input cfg cell w ~executor ~hooks ~respect_masks ?fault_kind
          prepared ~input
      in
      Hashtbl.add golden_cache input g;
      Hashtbl.add faulty_cache input faulty;
      g
  in
  let run_campaign c =
    let exps =
      Array.init cfg.experiments_per_campaign (fun e ->
          Seed.experiment cell ~campaign:c ~experiment:e)
    in
    let inputs = Array.map (input_of w) exps in
    (* resolve this round's goldens in schedule order, so cache
       insertion order is executor-independent *)
    let goldens = Array.map golden inputs in
    let results =
      Array.make cfg.experiments_per_campaign (vacuous_benign, 0.0)
    in
    Array.iter
      (fun e ->
        results.(e) <-
          timed ~timings (fun () ->
              Hashtbl.find faulty_cache inputs.(e) exps.(e)))
      (execution_order executor exps goldens);
    let site_counts = Array.map (fun g -> g.Experiment.g_dyn_sites) goldens in
    on_round c { inputs; site_counts; results };
    Array.map fst results
  in
  finalize cfg cell prepared w target category (protocol cfg ~run_campaign)
    golden_cache

let emit_summary sink ~detectors r =
  Option.iter (fun s -> Trace.emit s (result_json ~detectors r)) sink

(* One cell on the calling domain, streaming each round's records to
   [sink] as the round finishes. *)
let run ?transform ?hooks ?(respect_masks = true) ?fault_kind ?sink
    ?(executor = Checkpointed) (cfg : config) (w : Workload.t)
    (target : Vir.Target.t) (category : Analysis.Sites.category) : result =
  let detectors = Option.is_some hooks in
  let hooks = Option.value hooks ~default:no_hooks_factory in
  let r =
    run_cell ?transform ~hooks ~respect_masks ?fault_kind ~executor
      ~timings:(timings_of sink)
      ~on_round:(fun campaign round ->
        emit_round sink w target category ~campaign round)
      cfg w target category
  in
  emit_summary sink ~detectors r;
  r

(* The parallel driver: whole cells are the unit of work, handed out to
   a domain pool in cell order. Each worker runs [run_cell] and only
   buffers its rounds; the calling domain emits every record in cell
   order after the pool drains, so the trace is byte-identical to
   sequential [run]s at any [jobs]. *)
let run_cells ?transform ?hooks ?(respect_masks = true) ?fault_kind ?sink
    ?(executor = Checkpointed) ?on_cell ~jobs (cfg : config)
    (cells : (Workload.t * Vir.Target.t * Analysis.Sites.category) list) :
    result list =
  let detectors = Option.is_some hooks in
  let hooks = Option.value hooks ~default:no_hooks_factory in
  let timings = timings_of sink in
  let on_cell_lock = Mutex.create () in
  let run_one (w, target, category) =
    let rounds = ref [] in
    let r =
      run_cell ?transform ~hooks ~respect_masks ?fault_kind ~executor
        ~timings
        ~on_round:(fun _ round -> rounds := round :: !rounds)
        cfg w target category
    in
    Option.iter (fun f -> Mutex.protect on_cell_lock (fun () -> f r)) on_cell;
    (r, List.rev !rounds)
  in
  let cells = Array.of_list cells in
  let finished =
    Pool.with_pool
      ~jobs:(min jobs (Array.length cells))
      (fun pool -> Pool.map pool run_one cells)
  in
  Array.map2
    (fun (w, target, category) (r, rounds) ->
      List.iteri
        (fun campaign round ->
          emit_round sink w target category ~campaign round)
        rounds;
      emit_summary sink ~detectors r;
      r)
    cells finished
  |> Array.to_list
