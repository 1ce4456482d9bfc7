(* The benchmark's workloads: which campaign cells run, under which
   configuration and campaign entry point, and how their output is
   captured. *)

open Vulfi

type cell = Workload.t * Vir.Target.t * Analysis.Sites.category

type t = {
  name : string;
  cfg : Campaign.config;
  cells : cell list;
  detectors : bool;
      (** Fig 12: the paper's detector transform and runtime hooks *)
  jobs : int option;
      (** [None]: one [Campaign.run] per cell; [Some n]: one
          [Campaign.run_cells ~jobs:n] call over all cells *)
}

let names = [ "fig11-seq"; "fig11-par"; "fig12-paper" ]

(* The executor every timed campaign asks for, by its CLI name. *)
let executor_name = "converge-pruned"

let executor =
  match
    List.find_opt
      (fun e -> Campaign.executor_name e = executor_name)
      Campaign.[ Legacy; Checkpointed; Fast_forward; Converge_pruned ]
  with
  | Some e -> e
  | None -> failwith ("perfbench: no executor named " ^ executor_name)

let transform = Detectors.Overhead.transform Detectors.Overhead.paper_detectors

(* Worker domains for the parallel workload: one per core, at most 4 to
   keep the memory of a run small. *)
let default_jobs () = max 1 (min 4 (Domain.recommended_domain_count ()))

(* The quick Fig 11 sweep: 9 paper benchmarks x AVX/SSE x 3 categories,
   each benchmark on its smallest input. *)
let fig11_cells () : cell list =
  List.concat_map
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = { b.Benchmarks.Harness.bench with Workload.w_inputs = 1 } in
      List.concat_map
        (fun target ->
          List.map (fun cat -> (w, target, cat)) Analysis.Sites.all_categories)
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks

(* Fig 12: the micro-benchmarks with all their inputs, AVX. *)
let fig12_cells () : cell list =
  List.concat_map
    (fun (b : Benchmarks.Harness.benchmark) ->
      List.map
        (fun cat -> (b.Benchmarks.Harness.bench, Vir.Target.Avx, cat))
        Analysis.Sites.all_categories)
    Benchmarks.Registry.micro_benchmarks

let make name ~seed =
  let quick = { Campaign.quick_config with Campaign.seed } in
  match name with
  | "fig11-seq" ->
    { name; cfg = quick; cells = fig11_cells (); detectors = false;
      jobs = None }
  | "fig11-par" ->
    { name; cfg = quick; cells = fig11_cells (); detectors = false;
      jobs = Some (default_jobs ()) }
  | "fig12-paper" ->
    { name; cfg = { Campaign.paper_config with Campaign.seed };
      cells = fig12_cells (); detectors = true; jobs = None }
  | _ ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " names))

(* Does [record] close a stretch of campaign work: the first experiment
   record of a campaign round ([Campaign.run] and [run_cells] emit a
   round's records once the whole round has run) or a cell's summary
   record? *)
let closes_round record =
  match (Json.member "type" record, Json.member "experiment" record) with
  | Some (Json.String "summary"), _ | _, Some (Json.Int 0) -> true
  | _ -> false

(* A sink appending the trace to [buf]; [mark] is called after each
   record that {!closes_round}. *)
let sink ?(mark = ignore) buf =
  Trace.make
    ~emit:(fun j ->
      Buffer.add_string buf (Json.to_string j);
      Buffer.add_char buf '\n';
      if closes_round j then mark ())
    ~close:ignore ()

(* Run every cell of [wl] on [executor] through the workload's entry point,
   writing the trace into a {!sink}. *)
let run ?mark ~executor wl : Campaign.result list * string =
  let buf = Buffer.create (1 lsl 20) in
  let sink = sink ?mark buf in
  let transform, hooks =
    if wl.detectors then (Some transform, Some Detectors.Runtime.hooks)
    else (None, None)
  in
  let results =
    match wl.jobs with
    | Some jobs ->
      Campaign.run_cells ?transform ?hooks ~sink ~executor ~jobs wl.cfg
        wl.cells
    | None ->
      List.map
        (fun (w, t, c) ->
          Campaign.run ?transform ?hooks ~sink ~executor wl.cfg w t c)
        wl.cells
  in
  Trace.close sink;
  (results, Buffer.contents buf)

let experiments results =
  List.fold_left
    (fun n (r : Campaign.result) -> n + r.Campaign.c_totals.Campaign.n_experiments)
    0 results
