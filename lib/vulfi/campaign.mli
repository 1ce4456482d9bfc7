(** Fault-injection campaigns (paper §IV-D): repeated batches of
    experiments with t-based convergence of the SDC-rate estimate. *)

type config = {
  experiments_per_campaign : int;  (** 100 in the paper *)
  min_campaigns : int;
  max_campaigns : int;
  margin_target : float;  (** stop when the 95% margin falls below *)
  seed : int;  (** master seed: campaigns are fully reproducible *)
}

(** The paper's protocol: 100-experiment campaigns, at least 20, ±3%
    margin at 95% confidence. *)
val paper_config : config

(** A scaled-down configuration for quick harness runs. *)
val quick_config : config

type totals = {
  n_experiments : int;
  n_sdc : int;
  n_benign : int;
  n_crash : int;
  n_detected : int;  (** runs flagged by a detector *)
  n_detected_sdc : int;  (** SDC runs flagged by a detector *)
}

type result = {
  c_workload : string;
  c_target : Vir.Target.t;
  c_category : Analysis.Sites.category;
  c_campaigns : int;
  c_sdc_rates : float list;  (** one sample per campaign *)
  c_totals : totals;
  c_margin : float;  (** final 95% margin of error on the SDC rate *)
  c_near_normal : bool;  (** sample distribution near normal? *)
  c_static_sites : int;
  c_avg_dynamic_sites : float;
  c_avg_dynamic_instrs : float;
  c_golden_runs : int;
      (** distinct inputs the schedule drew — the golden runs any
          executor must perform at least once *)
  c_golden_reused : int;
      (** experiments that reused a cached golden run. Both counters
          are functions of the seed schedule alone, so they are
          identical between the legacy and checkpointed executors,
          sequential or [-j N]. *)
  c_checkpoints : int;
      (** machine-state checkpoints the fast-forward executor lays for
          this cell (summed over the distinct scheduled inputs) *)
  c_ff_resumed : int;
      (** experiments whose injection site is at or past the first
          checkpoint of its input's plan — the runs the fast-forward
          executor resumes rather than replays. Like the golden
          counters, both are pure functions of the seed schedule (not
          of what any executor physically did), so every executor
          reports the same values and traces stay byte-identical
          across executors. *)
  c_pruned : int;
      (** experiments with at least one plan checkpoint site strictly
          after their injection site — the runs the converge-pruned
          executor can terminate early (the physical prune count is
          bench-only telemetry, {!Experiment.prune_stats}) *)
  c_prune_checks : int;
      (** total (experiment, plan site) pairs with the site strictly
          after the injection site — the convergence comparisons the
          converge-pruned executor can at most perform. Both are pure
          functions of the seed schedule, reported identically by all
          four executors. *)
}

(** JSON view of a result: the per-cell summary record of a trace, and
    the cell entry of the RESULTS_*.json exports (see {!Trace}).
    [detectors] (default false) records whether detector hooks were
    attached during the campaign. *)
val result_json : ?detectors:bool -> result -> Json.t

val sdc_rate : result -> float
val benign_rate : result -> float
val crash_rate : result -> float

(** Fraction of SDC-producing experiments that a detector flagged — the
    paper's "SDC detection rate" (Fig 12). *)
val sdc_detection_rate : result -> float

(** The campaign machinery builds one hook record per resolved input
    from this factory; hooks keep no state (detections are machine
    state), so every run on that input shares the record. *)
type hooks_factory = unit -> Experiment.hooks

(** The four executors a campaign can run on. All produce bit-identical
    results, digests and traces; they differ only in how much work each
    experiment repeats.

    - [Legacy] is the paper's §IV-B protocol taken literally: every
      experiment performs its own fault-free profiling run on a freshly
      built machine before the faulty run.
    - [Checkpointed] runs [w_setup] once per (cell, input), snapshots
      the post-setup memory image and executes the golden run once;
      every further experiment on that input restores the snapshot and
      reuses the machine.
    - [Fast_forward] additionally lays full machine-state checkpoints
      (memory image, register frames, call stack, dynamic counters) at
      the scheduled injection sites during one instrumented golden
      replay per (cell, input), and resumes every faulty run from the
      nearest checkpoint at or before its injection site, executing
      only the post-injection suffix.
    - [Converge_pruned] rides the fast-forward machinery and runs each
      faulty suffix under position tracking, comparing the machine
      against the golden state at every later checkpoint site
      ({!Interp.Machine.state_equal}); on a match it terminates
      immediately and splices the golden outcome, which is provably
      identical to running the suffix out (DESIGN.md, convergence
      soundness).

    The three non-legacy executors are settings of one faulty run,
    {!Experiment.faulty_run_pruned}: [Checkpointed] lays no
    checkpoints, [Fast_forward] turns pruning off. All three run a
    campaign's experiments in injection-sorted order (results and
    traces are emitted in experiment order regardless).

    Detector cells run on whichever executor they ask for: detections
    are machine state ({!Interp.Machine.record_detection}), so
    checkpoints carry them and convergence checks compare them. *)
type executor = Legacy | Checkpointed | Fast_forward | Converge_pruned

(** CLI/report-facing name of an executor ("legacy", "checkpointed",
    "fast-forward", "converge-pruned"). *)
val executor_name : executor -> string

(** [effective_executor ~detectors e] is [e]: every executor runs
    detector cells. Kept for the campaign benchmark ([perfbench/]),
    which calls it. *)
val effective_executor : detectors:bool -> executor -> executor

(** [run cfg w target category] executes the campaign protocol for one
    (workload, ISA, site-category) cell on the calling domain.
    [transform] pre-processes the module (e.g. detector insertion);
    [hooks] builds per-run extra runtime; [respect_masks]/[fault_kind]
    select ablation variants. All randomness follows the pure {!Seed}
    schedule: each experiment's input, fault site and flipped bit are
    functions of (cfg.seed, workload, target, category, campaign,
    experiment).

    [sink] receives one telemetry record per experiment — in
    (campaign, experiment) order, each round's records as soon as the
    round has run — plus the cell's summary record; with a default
    (no-timings) sink the trace is byte-identical to the cell's share
    of a {!run_cells} trace at any [jobs].

    [executor] (default [Checkpointed]) selects the {!executor}; all
    four are bit-identical — results, digests and traces — because
    golden runs are deterministic per (cell, input) and checkpoint
    placement is a pure function of the seed schedule. *)
val run :
  ?transform:(Vir.Vmodule.t -> Vir.Vmodule.t) ->
  ?hooks:hooks_factory ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  ?sink:Trace.sink ->
  ?executor:executor ->
  config ->
  Workload.t ->
  Vir.Target.t ->
  Analysis.Sites.category ->
  result

(** [run_cells ~jobs cfg cells] runs a list of
    (workload, target, category) cells — the shape of a Fig 11 / Table
    II sweep — on a pool of [jobs] domains (no more than there are
    cells), returning results in cell order, each bit-identical to a
    sequential {!run} of that cell. The unit of work is a whole cell: the
    domain that picks a cell up runs its entire protocol and owns
    everything the cell builds (prepared module, goldens, checkpoints),
    so a single cell always runs on one domain.

    Workers only buffer their cells' records; [sink] receives them all,
    in cell order, after the last cell has finished, so the trace is
    byte-identical to sequential [run]s at any [jobs]. [on_cell] is
    called with each result as its cell finishes — in completion order,
    on the domain that ran it, one call at a time — e.g. for progress
    output. An exception raised in any cell is re-raised once every
    other cell has finished. *)
val run_cells :
  ?transform:(Vir.Vmodule.t -> Vir.Vmodule.t) ->
  ?hooks:hooks_factory ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  ?sink:Trace.sink ->
  ?executor:executor ->
  ?on_cell:(result -> unit) ->
  jobs:int ->
  config ->
  (Workload.t * Vir.Target.t * Analysis.Sites.category) list ->
  result list
