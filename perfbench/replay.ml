(* The traced replay: re-runs a workload's cells at -j1 through the public
   Seed / Experiment / Trace API, mirroring [Campaign.run]'s
   protocol (same checkpoint plans, same injection-sorted execution
   order, same stop rule and accounting), with a span around every call
   into a layer and counters at the same boundaries. Its results and
   trace must equal the untraced campaign's, experiment for experiment. *)

open Vulfi

type counters = {
  mutable static_sites : int;
  mutable sched_moves : int;
  mutable chains_annotated : int;
  mutable chains_fused : int;
  mutable golden_dyn_instrs : int;
  mutable checkpoints : int;
  mutable lay_alloc_bytes : float;
  mutable faulty_alloc_bytes : float;
  mutable resumed : int;
  mutable suffix_instrs : int;
  mutable prune_checks : int;
  mutable prune_hits : int;
  mutable hooks_created : int;
  mutable records : int;
  mutable bytes : int;
}

let counters () =
  {
    static_sites = 0; sched_moves = 0; chains_annotated = 0;
    chains_fused = 0; golden_dyn_instrs = 0; checkpoints = 0;
    lay_alloc_bytes = 0.0; faulty_alloc_bytes = 0.0; resumed = 0;
    suffix_instrs = 0; prune_checks = 0; prune_hits = 0;
    hooks_created = 0; records = 0; bytes = 0;
  }

let span = Spans.with_span

(* [Experiment.prepare], one layer at a time. *)
let prepare k ~transform (w : Workload.t) target category :
    Experiment.prepared =
  span "prepare" @@ fun () ->
  let m = span "minispc.build" (fun () -> w.Workload.w_build target) in
  let m =
    match transform with
    | None -> m
    | Some f -> span "detectors.transform" (fun () -> f m)
  in
  let instr =
    span "instrument" (fun () ->
        Instrument.run m
          (Analysis.Sites.select (Analysis.Sites.targets_of_module m) category))
  in
  k.static_sites <- k.static_sites + Instrument.static_site_count instr;
  span "passes" (fun () ->
      let m = instr.Instrument.instrumented in
      if !Experiment.schedule_enabled then
        k.sched_moves <- k.sched_moves + Passes.Schedule.run_module m;
      if !Experiment.fusion_enabled then
        k.chains_annotated <- k.chains_annotated + Passes.Fuse.run_module m);
  let code =
    span "compile" (fun () ->
        Interp.Compile.compile_module instr.Instrument.instrumented)
  in
  k.chains_fused <- k.chains_fused + Interp.Compile.fused_chain_count code;
  { Experiment.p_workload = w; p_target = target; p_category = category;
    p_code = code; p_instr = instr }

let input_of (w : Workload.t) (ex : Seed.exp) =
  Seed.uniform ex.Seed.input_key w.Workload.w_inputs

let site_of (ex : Seed.exp) dyn_sites =
  if dyn_sites = 0 then 0 else 1 + Seed.uniform ex.Seed.site_key dyn_sites

(* Every site the full schedule draws for [input], then thinned to the
   executor's checkpoint plan. *)
let plan_for (cfg : Campaign.config) cell w ~input ~dyn_sites =
  let sites = ref [] in
  if dyn_sites > 0 then
    for c = 0 to cfg.Campaign.max_campaigns - 1 do
      for e = 0 to cfg.Campaign.experiments_per_campaign - 1 do
        let ex = Seed.experiment cell ~campaign:c ~experiment:e in
        if input_of w ex = input then sites := site_of ex dyn_sites :: !sites
      done
    done;
  Experiment.checkpoint_plan (List.rev !sites)

let vacuous_benign =
  { Experiment.r_outcome = Outcome.Benign; r_injection = None;
    r_detected = false; r_dyn_instrs = 0 }

let add_outcome (t : Campaign.totals) (r : Experiment.run_result) =
  let b c = if c then 1 else 0 in
  {
    Campaign.n_experiments = t.Campaign.n_experiments + 1;
    n_sdc = t.Campaign.n_sdc + b (r.Experiment.r_outcome = Outcome.Sdc);
    n_benign = t.Campaign.n_benign + b (r.Experiment.r_outcome = Outcome.Benign);
    n_crash =
      (t.Campaign.n_crash
      + match r.Experiment.r_outcome with Outcome.Crash _ -> 1 | _ -> 0);
    n_detected = t.Campaign.n_detected + b r.Experiment.r_detected;
    n_detected_sdc =
      t.Campaign.n_detected_sdc
      + b (r.Experiment.r_detected && r.Experiment.r_outcome = Outcome.Sdc);
  }

let empty_totals =
  { Campaign.n_experiments = 0; n_sdc = 0; n_benign = 0; n_crash = 0;
    n_detected = 0; n_detected_sdc = 0 }

let rate part total =
  if total = 0 then 0.0 else float_of_int part /. float_of_int total

(* The rightmost checkpoint at or before [site], as the fast-forward
   executor resumes from. *)
let resume_point (cks : (int * Interp.Machine.checkpoint) array) site =
  let best = ref None in
  Array.iter (fun ((s, _) as c) -> if s <= site then best := Some c) cks;
  !best

(* One cell under [executor] (the effective one: [Converge_pruned], or
   [Checkpointed] when detectors are attached). *)
let cell k ~(cfg : Campaign.config) ~transform ~hooks ~executor ~sink
    ((w : Workload.t), target, category) : Campaign.result =
  span "cell" @@ fun () ->
  let prepared = prepare k ~transform w target category in
  let cell =
    Seed.cell ~seed:cfg.Campaign.seed ~workload:w.Workload.w_name ~target
      ~category
  in
  let ff_exec =
    match executor with
    | Campaign.Converge_pruned -> true
    | Campaign.Checkpointed -> false
    | e ->
      invalid_arg ("replay: unsupported executor " ^ Campaign.executor_name e)
  in
  let golden_cache : (int, Experiment.golden) Hashtbl.t = Hashtbl.create 8 in
  let pi_cache = Hashtbl.create 8 and ff_cache = Hashtbl.create 8 in
  let golden input =
    match Hashtbl.find_opt golden_cache input with
    | Some g -> g
    | None ->
      let pi =
        span "golden" (fun () ->
            Experiment.prepare_input ~hooks:(hooks ()) prepared ~input)
      in
      let g = pi.Experiment.pi_golden in
      k.golden_dyn_instrs <- k.golden_dyn_instrs + g.Experiment.g_dyn_instrs;
      if ff_exec then begin
        let plan = plan_for cfg cell w ~input ~dyn_sites:g.Experiment.g_dyn_sites in
        let a0 = Gc.allocated_bytes () in
        let ff =
          span "lay" (fun () ->
              Experiment.lay_checkpoints ~hooks:(hooks ()) prepared ~pi ~plan)
        in
        k.lay_alloc_bytes <- k.lay_alloc_bytes +. (Gc.allocated_bytes () -. a0);
        k.checkpoints <- k.checkpoints + Array.length ff.Experiment.ff_checkpoints;
        Hashtbl.add ff_cache input ff
      end
      else Hashtbl.add pi_cache input pi;
      Hashtbl.add golden_cache input g;
      g
  in
  let experiment (ex : Seed.exp) (g : Experiment.golden) =
    if g.Experiment.g_dyn_sites = 0 then vacuous_benign
    else begin
      let dynamic_site = site_of ex g.Experiment.g_dyn_sites in
      let seed = ex.Seed.bit_seed in
      let hooks = hooks () in
      let input = g.Experiment.g_input in
      let hits0, checks0 = Experiment.prune_stats () in
      let a0 = Gc.allocated_bytes () in
      (* instructions the resume point skips; [None] for a full replay *)
      let spent =
        if ff_exec then
          Option.map
            (fun (_, ck) -> Interp.Machine.checkpoint_spent ck)
            (resume_point (Hashtbl.find ff_cache input).Experiment.ff_checkpoints
               dynamic_site)
        else None
      in
      let r =
        span "faulty" (fun () ->
            if ff_exec then
              Experiment.faulty_run_pruned ~hooks prepared
                ~ff:(Hashtbl.find ff_cache input) ~dynamic_site ~seed
            else
              Experiment.faulty_run_checkpointed ~hooks prepared
                ~pi:(Hashtbl.find pi_cache input) ~dynamic_site ~seed)
      in
      k.faulty_alloc_bytes <- k.faulty_alloc_bytes +. (Gc.allocated_bytes () -. a0);
      let hits1, checks1 = Experiment.prune_stats () in
      k.prune_hits <- k.prune_hits + hits1 - hits0;
      k.prune_checks <- k.prune_checks + checks1 - checks0;
      (* The executed suffix is known only for runs that finished: a
         pruned run stopped at an unknown later check site. *)
      (match spent with
      | Some s ->
        k.resumed <- k.resumed + 1;
        if hits1 = hits0 then
          k.suffix_instrs <- k.suffix_instrs + r.Experiment.r_dyn_instrs - s
      | None ->
        if hits1 = hits0 then
          k.suffix_instrs <- k.suffix_instrs + r.Experiment.r_dyn_instrs);
      r
    end
  in
  let run_campaign c =
    span "round" @@ fun () ->
    let n = cfg.Campaign.experiments_per_campaign in
    let exps = Array.init n (fun e -> Seed.experiment cell ~campaign:c ~experiment:e) in
    let inputs = Array.map (input_of w) exps in
    Array.iter (fun i -> ignore (golden i)) inputs;
    let dyn i = (Hashtbl.find golden_cache i).Experiment.g_dyn_sites in
    let order = Array.init n Fun.id in
    if ff_exec then begin
      let key e = (inputs.(e), site_of exps.(e) (dyn inputs.(e)), e) in
      Array.sort (fun a b -> compare (key a) (key b)) order
    end;
    let results = Array.make n vacuous_benign in
    Array.iter
      (fun e ->
        results.(e) <- experiment exps.(e) (Hashtbl.find golden_cache inputs.(e)))
      order;
    span "trace.emit" (fun () ->
        Array.iteri
          (fun e r ->
            Trace.emit sink
              (Trace.experiment_record ~workload:w.Workload.w_name ~target
                 ~category ~campaign:c ~experiment:e ~input:inputs.(e)
                 ~golden_sites:(dyn inputs.(e)) ~result:r ()))
          results);
    results
  in
  (* The §IV-D stop rule. *)
  let totals = ref empty_totals and sdc_rates = ref [] and campaigns = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let results = run_campaign !campaigns in
    let ct = Array.fold_left add_outcome empty_totals results in
    Array.iter (fun r -> totals := add_outcome !totals r) results;
    incr campaigns;
    sdc_rates := rate ct.Campaign.n_sdc ct.Campaign.n_experiments :: !sdc_rates;
    if
      !campaigns >= cfg.Campaign.max_campaigns
      || !campaigns >= cfg.Campaign.min_campaigns
         && Stats.margin_of_error !sdc_rates <= cfg.Campaign.margin_target
         && Stats.near_normal !sdc_rates
    then continue_ := false
  done;
  (* Schedule-derived accounting, as [Campaign.run] computes it. *)
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
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (g : Experiment.golden) ->
      if g.Experiment.g_dyn_sites > 0 then
        Hashtbl.replace plans g.Experiment.g_input
          (plan_for cfg cell w ~input:g.Experiment.g_input
             ~dyn_sites:g.Experiment.g_dyn_sites))
    goldens;
  let ff_resumed = ref 0 and pruned = ref 0 and prune_checks = ref 0 in
  for c = 0 to !campaigns - 1 do
    for e = 0 to cfg.Campaign.experiments_per_campaign - 1 do
      let ex = Seed.experiment cell ~campaign:c ~experiment:e in
      let input = input_of w ex in
      match Hashtbl.find_opt plans input with
      | Some plan when Array.length plan > 0 ->
        let site = site_of ex (Hashtbl.find golden_cache input).Experiment.g_dyn_sites in
        if site >= plan.(0) then incr ff_resumed;
        let after = Array.fold_left (fun n s -> if s > site then n + 1 else n) 0 plan in
        if after > 0 then incr pruned;
        prune_checks := !prune_checks + after
      | _ -> ()
    done
  done;
  let totals = !totals in
  let r =
    {
      Campaign.c_workload = w.Workload.w_name;
      c_target = target;
      c_category = category;
      c_campaigns = !campaigns;
      c_sdc_rates = List.rev !sdc_rates;
      c_totals = totals;
      c_margin = Stats.margin_of_error !sdc_rates;
      c_near_normal = Stats.near_normal !sdc_rates;
      c_static_sites = Instrument.static_site_count prepared.Experiment.p_instr;
      c_avg_dynamic_sites = avg (fun g -> g.Experiment.g_dyn_sites);
      c_avg_dynamic_instrs = avg (fun g -> g.Experiment.g_dyn_instrs);
      c_golden_runs = List.length goldens;
      c_golden_reused = totals.Campaign.n_experiments - List.length goldens;
      c_checkpoints = Hashtbl.fold (fun _ p acc -> acc + Array.length p) plans 0;
      c_ff_resumed = !ff_resumed;
      c_pruned = !pruned;
      c_prune_checks = !prune_checks;
    }
  in
  span "trace.emit" (fun () ->
      Trace.emit sink (Campaign.result_json ~detectors:(transform <> None) r));
  r

(* Replay every cell of [wl]; returns the results, the trace text and
   the layer counters. Spans accumulate in {!Spans}. *)
let run (wl : Workloads.t) =
  let k = counters () in
  let buf = Buffer.create (1 lsl 20) in
  let sink =
    Trace.make
      ~emit:(fun j ->
        let s = Json.to_string j in
        Buffer.add_string buf s;
        Buffer.add_char buf '\n';
        k.records <- k.records + 1;
        k.bytes <- k.bytes + String.length s + 1)
      ~close:(fun () -> ())
      ()
  in
  let transform, hooks =
    if wl.Workloads.detectors then
      ( Some Workloads.transform,
        fun () ->
          k.hooks_created <- k.hooks_created + 1;
          Detectors.Runtime.hooks () )
    else (None, fun () -> Experiment.no_hooks)
  in
  let executor =
    Campaign.effective_executor ~detectors:wl.Workloads.detectors
      Workloads.executor
  in
  let results =
    List.mapi
      (fun i c ->
        Spans.current_cell := i;
        cell k ~cfg:wl.Workloads.cfg ~transform ~hooks ~executor ~sink c)
      wl.Workloads.cells
  in
  Spans.current_cell := -1;
  Trace.close sink;
  (* the header record is emitted by [Trace.make], outside any span *)
  (results, Buffer.contents buf, k)
