(** Dominator analysis over a function's CFG.

    Iterative dataflow (Cooper-Harvey-Kennedy style over bitsets kept
    simple): computes the full dominator sets, immediate dominators and
    dominance frontiers. The verifier keeps its own minimal copy to stay
    dependency-free; this module is the general, tested facility used by
    loop detection and available to custom passes. *)

type t = {
  func : Vir.Func.t;
  labels : string array;  (** block index -> label; entry is 0 *)
  index : (string, int) Hashtbl.t;
  dom : bool array array;  (** dom.(i).(j): j dominates i *)
  idom : int array;  (** immediate dominator; -1 for entry/unreachable *)
  preds : int list array;
  succs : int list array;
}

let block_count t = Array.length t.labels

let index_of t label = Hashtbl.find_opt t.index label

let label_of t i = t.labels.(i)

let compute (f : Vir.Func.t) : t =
  let blocks = Array.of_list f.Vir.Func.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace index b.Vir.Block.label i) blocks;
  let succs =
    Array.map
      (fun b ->
        List.filter_map
          (fun l -> Hashtbl.find_opt index l)
          (Vir.Block.successors b))
      blocks
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  (* dom.(0) = {0}; others start full and shrink. *)
  let dom = Array.init n (fun i -> Array.make n (i <> 0)) in
  if n > 0 then dom.(0).(0) <- true;
  for i = 1 to n - 1 do
    Array.fill dom.(i) 0 n true
  done;
  let changed = ref (n > 1) in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let inter = Array.make n (preds.(i) <> []) in
      List.iter
        (fun p ->
          Array.iteri (fun j v -> inter.(j) <- v && dom.(p).(j)) inter)
        preds.(i);
      inter.(i) <- true;
      if inter <> dom.(i) then begin
        dom.(i) <- inter;
        changed := true
      end
    done
  done;
  (* idom: the unique strict dominator dominated by all other strict
     dominators. *)
  let idom = Array.make n (-1) in
  for i = 1 to n - 1 do
    let strict =
      List.filter (fun j -> j <> i && dom.(i).(j)) (List.init n Fun.id)
    in
    let is_idom c = List.for_all (fun j -> j = c || dom.(c).(j)) strict in
    match List.find_opt is_idom strict with
    | Some c -> idom.(i) <- c
    | None -> ()
  done;
  {
    func = f;
    labels = Array.map (fun b -> b.Vir.Block.label) blocks;
    index;
    dom;
    idom;
    preds;
    succs;
  }

(* Does block [a] dominate block [b] (labels)? Unknown labels: false. *)
let dominates t a b =
  match (index_of t a, index_of t b) with
  | Some ia, Some ib -> t.dom.(ib).(ia)
  | _ -> false

let idom_of t label =
  match index_of t label with
  | Some i when t.idom.(i) >= 0 -> Some t.labels.(t.idom.(i))
  | _ -> None

(* Dominance frontier of each block: DF(x) = blocks y with a predecessor
   dominated by x (or = x) where x does not strictly dominate y. *)
let dominance_frontier t : (string * string list) list =
  let n = block_count t in
  let df = Array.make n [] in
  for y = 0 to n - 1 do
    if List.length t.preds.(y) >= 2 then
      List.iter
        (fun p ->
          (* walk up from p to idom(y), adding y to each DF *)
          let rec walk x =
            if x >= 0 && x <> t.idom.(y) then begin
              if not (List.mem y df.(x)) then df.(x) <- y :: df.(x);
              walk t.idom.(x)
            end
          in
          walk p)
        t.preds.(y)
  done;
  Array.to_list
    (Array.mapi
       (fun i f -> (t.labels.(i), List.map (fun j -> t.labels.(j)) f))
       df)

let preds_of t i = t.preds.(i)

(* Back edges: edges u -> v where v dominates u. *)
let back_edges t : (string * string) list =
  let acc = ref [] in
  Array.iteri
    (fun u ss ->
      List.iter
        (fun v -> if t.dom.(u).(v) then acc := (t.labels.(u), t.labels.(v)) :: !acc)
        ss)
    t.succs;
  List.rev !acc
