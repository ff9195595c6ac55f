(* The traced run's span recorder: spans are kept in memory and written
   when the run ends.  Disarmed (the end-to-end runs), [with_span] is a
   direct call. *)

let armed = ref false
let recorded : Stats.span list ref = ref []
let next_id = ref 0

(* open spans, innermost first: (id, items counted so far) *)
let stack : (int * int ref) list ref = ref []
let now_ns () = Int64.to_int (Promise.Clock.monotonic_ns ())

let with_span ?(rid = -1) ?(items = 0) name f =
  if not !armed then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let count = ref items in
    stack := (id, count) :: !stack;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = now_ns () in
        stack := List.tl !stack;
        recorded :=
          { Stats.id; parent; name; rid; items = !count; start_ns; stop_ns }
          :: !recorded)
  end

(* Add [n] units of work to the innermost open span. *)
let count n =
  match !stack with (_, c) :: _ when !armed -> c := !c + n | _ -> ()

let all () = List.rev !recorded
let named name = List.filter (fun s -> s.Stats.name = name) (all ())
let dur_ns s = s.Stats.stop_ns - s.Stats.start_ns

let total_s name =
  List.fold_left (fun acc s -> acc + dur_ns s) 0 (named name) |> fun ns ->
  float_of_int ns /. 1e9

let total_items name =
  List.fold_left (fun acc s -> acc + s.Stats.items) 0 (named name)

(* The recorder's own cost per span, measured on empty spans, for the
   tracing-overhead estimate. *)
let cost_ns () =
  let saved = !recorded and saved_id = !next_id in
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    with_span "calibrate" ignore
  done;
  let per = float_of_int (now_ns () - t0) /. float_of_int n in
  recorded := saved;
  next_id := saved_id;
  per

let write_tsv path ~limit =
  let oc = open_out path in
  output_string oc "id\tparent\tname\trid\titems\tstart_ns\tstop_ns\n";
  List.iteri
    (fun i s ->
      if i < limit then
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" s.Stats.id s.parent
          s.name s.rid s.items s.start_ns s.stop_ns)
    (all ());
  close_out oc
