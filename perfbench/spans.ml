(* In-memory span recorder for the traced replay. A span is one call into
   a layer: its name, wall-clock start and end, the span that was open
   when it started (its parent) and the campaign cell it belongs to.
   Spans nest strictly (the replay is sequential), so a span's self time
   is its duration minus its direct children's durations. Nothing is
   written until [write_jsonl] at the end of the run. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span; -1 at top level *)
  cell : int;  (** index of the campaign cell; -1 outside cells *)
}

let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let current_cell = ref (-1)

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  current_cell := -1

let push s =
  if !count = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 grown 0 !count;
    spans := grown
  end;
  !spans.(!count) <- s;
  incr count

(* [with_span name f] runs [f ()] inside a span named [name]. An
   exception closes the span and propagates. *)
let with_span name f =
  let id = !count in
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s =
    { name; start = Unix.gettimeofday (); stop = nan; parent;
      cell = !current_cell }
  in
  push s;
  stack := id :: !stack;
  let finish () =
    s.stop <- Unix.gettimeofday ();
    stack := List.tl !stack
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let all () = Array.sub !spans 0 !count
let duration s = s.stop -. s.start

(* Per span name: (calls, total seconds, self seconds), in order of
   first appearance. *)
let by_layer () =
  let a = all () in
  let child = Array.make (Array.length a) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then
        child.(s.parent) <- child.(s.parent) +. duration s)
    a;
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let calls, total, self =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name
        (calls + 1, total +. duration s, self +. duration s -. child.(i)))
    a;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Total seconds and call count of the spans named [name]. *)
let total name =
  Array.fold_left
    (fun (n, t) s -> if s.name = name then (n + 1, t +. duration s) else (n, t))
    (0, 0.0) (all ())

let durations name =
  Array.of_list
    (Array.fold_right
       (fun s acc -> if s.name = name then duration s :: acc else acc)
       (all ()) [])

let write_jsonl path =
  let oc = open_out path in
  let t0 = if !count > 0 then !spans.(0).start else 0.0 in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"cell\":%d}\n"
        i s.name (s.start -. t0) (s.stop -. t0) s.parent s.cell)
    (all ());
  close_out oc
