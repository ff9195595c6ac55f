(* The benchmark's own arithmetic: percentiles, span self time and
   failure accounting.  Pure functions so the test suite can pin them
   on hand-computed cases. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest rank: the smallest sample with at least [q * n] samples at
   or below it.  [sorted] must be ascending and non-empty. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = nearest_rank (sorted_copy a) 0.5

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  rid : int;  (** request id, [-1] when the span is not per request *)
  items : int;  (** units of work the span covered *)
  start_ns : int;
  stop_ns : int;
}

(* Self time: the span's duration minus the part of its interval that
   its direct children cover (overlapping children counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  let covered s =
    let kids =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if b > a then (acc + (b - a), b) else (acc, reach))
        (0, min_int) kids
    in
    total
  in
  List.map (fun s -> (s, s.stop_ns - s.start_ns - covered s)) spans

(* A span's layer is the part of its name before the first dot. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                   *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable rejected : int;  (** refused at admission *)
  mutable timeouts : int;
  mutable errors : int;  (** typed errors other than timeouts *)
  mutable wrong : int;  (** outputs that failed their check *)
}

let tally () = { attempted = 0; rejected = 0; timeouts = 0; errors = 0; wrong = 0 }
let failed t = t.rejected + t.timeouts + t.errors + t.wrong

let fail_ratio t =
  if t.attempted = 0 then 0.0 else float_of_int (failed t) /. float_of_int t.attempted

(* Count [t]'s operations and failures in [into] too. *)
let add ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.rejected <- into.rejected + t.rejected;
  into.timeouts <- into.timeouts + t.timeouts;
  into.errors <- into.errors + t.errors;
  into.wrong <- into.wrong + t.wrong
