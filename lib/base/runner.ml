module Sup = Supervisor
module Inc = Incident

type backend =
  | Local of { pool : Pool.t; session : Sup.session }
  | Fleet of { config : Fleet.config; shards : int }

type 'r outcome =
  | Done of 'r * Fleet.summary option
  | Interrupted of { completed : int; total : int }
  | Rejected of Error.t

let map f = function
  | Done (r, summary) -> Done (f r, summary)
  | (Interrupted _ | Rejected _) as o -> o

(* ------------------------------------------------------------------ *)
(* Local: pool-width chunks under a supervisor session                 *)
(* ------------------------------------------------------------------ *)

let count_some arr =
  Array.fold_left (fun n o -> if o = None then n else n + 1) 0 arr

(* The checkpoint payload is the per-item slot array; Marshal
   round-trips it bit-exactly because items are plain data. *)
let run_local ~on_checkpoint ~pool ~(session : Sup.session) ~what ~digest
    ~label ~total scope =
  let cfg = session.Sup.sup in
  let inc = cfg.Sup.incidents in
  let digest = Checkpoint.digest_of_config ~kind:"runner-items" [ digest ] in
  let progress slots =
    [ ("items_done", string_of_int (count_some slots));
      ("total", string_of_int total) ]
  in
  let loaded =
    match session.Sup.checkpoint with
    | Some path when session.Sup.resume && Checkpoint.exists path -> (
        match Checkpoint.load ~path ~config_digest:digest with
        | Ok slots when Array.length slots = total ->
            Inc.record inc Inc.Checkpoint_resume
              (("path", path) :: progress slots);
            Ok slots
        | Ok _ ->
            Error
              (Error.make ~layer:"runner" ~code:Error.Stale_checkpoint
                 ~context:[ ("path", path) ]
                 "checkpoint item count does not match this run")
        | Error e ->
            Inc.record inc Inc.Checkpoint_stale [ ("error", Error.to_string e) ];
            Error e)
    | _ -> Ok (Array.make total None)
  in
  match loaded with
  | Error e -> Rejected e
  | Ok slots ->
      let save () =
        match session.Sup.checkpoint with
        | None -> ()
        | Some path -> (
            match Checkpoint.save ~path ~config_digest:digest slots with
            | Ok () ->
                Inc.record inc Inc.Checkpoint_write
                  (("path", path) :: progress slots);
                on_checkpoint ~completed:(count_some slots) ~total
            | Error e ->
                (* losing persistence degrades, it does not abort *)
                Inc.record inc Inc.Degradation
                  [ ("what", "checkpoint write failed");
                    ("error", Error.to_string e) ])
      in
      Inc.record inc Inc.Run_start
        [
          ("what", what);
          ("total", string_of_int total);
          ("jobs", string_of_int (Pool.jobs pool));
          ("resumed", string_of_int (count_some slots));
        ];
      let item = scope () in
      (* an item that has not started when a stop arrives is skipped
         ([Ok None]), so a stop returns once the in-flight items end *)
      let guarded i =
        if Sup.stop_requested session.Sup.stop then Ok None
        else Result.map Option.some (item i)
      in
      (* with a checkpoint, one pool width per chunk keeps every domain
         busy while bounding what a crash or a SIGTERM can lose; without
         one, a single map load-balances every pending item *)
      let width =
        match session.Sup.checkpoint with
        | Some _ -> max 1 (Pool.jobs pool)
        | None -> max 1 total
      in
      let rec loop pending =
        if Sup.stop_requested session.Sup.stop then begin
          save ();
          Inc.record inc Inc.Signal
            (( "signal",
               match Sup.stop_signal session.Sup.stop with
               | Some n -> Sup.signal_name n
               | None -> "request" )
            :: progress slots);
          Interrupted { completed = count_some slots; total }
        end
        else
          match pending with
          | [] ->
              Inc.record inc Inc.Run_end
                [ ("what", what); ("total", string_of_int total) ];
              Option.iter Checkpoint.remove session.Sup.checkpoint;
              Done (Array.map Option.get slots, None)
          | _ ->
              let chunk = List.filteri (fun k _ -> k < width) pending in
              let rest = List.filteri (fun k _ -> k >= width) pending in
              let carr = Array.of_list chunk in
              let results =
                Sup.map_result ~pool cfg ~label:(fun k -> label carr.(k))
                  guarded chunk
              in
              List.iter2
                (fun i r ->
                  match r with
                  | Ok None -> ()
                  | Ok (Some v) -> slots.(i) <- Some (Ok v)
                  | Error e -> slots.(i) <- Some (Error e))
                chunk results;
              save ();
              loop rest
      in
      loop (List.filter (fun i -> slots.(i) = None) (List.init total Fun.id))

(* ------------------------------------------------------------------ *)
(* Fleet: contiguous ranges, one per forked shard                      *)
(* ------------------------------------------------------------------ *)

let empty_summary =
  {
    Fleet.shards = 0;
    workers = 0;
    restarts = 0;
    resumed = 0;
    quarantined = 0;
    total_ms = 0.0;
    timings = [||];
  }

(* A shard computes its slice in a fresh scope, so its result depends
   only on its index — what makes kill/resume fleets bit-identical to
   clean ones. Items are captured one by one (no deadline, no retry:
   the fleet's deadline and restarts are per shard), so a raising item
   costs only its own slot. *)
let run_fleet ~on_shard_done ~config ~shards ~digest ~label ~total scope =
  if shards < 1 then
    Rejected
      (Error.make ~layer:"runner" ~code:Error.Invalid_operand
         ~context:[ ("shards", string_of_int shards) ]
         "shards must be >= 1")
  else if total = 0 then Done ([||], Some empty_summary)
  else
    let ranges = Fleet.ranges ~shards ~items:total in
    let capture = Sup.config () in
    let f ~shard =
      let off, len = ranges.(shard) in
      let item = scope () in
      Ok
        (Array.init len (fun k ->
             Sup.supervise capture ~label:(label (off + k)) (fun ~attempt:_ ->
                 item (off + k))))
    in
    let digest = Checkpoint.digest_of_config ~kind:"runner-shard" [ digest ] in
    match
      Fleet.run ?on_shard_done config ~digest ~shards:(Array.length ranges) ~f
    with
    | Fleet.Fleet_rejected e -> Rejected e
    | Fleet.Fleet_interrupted { completed; total } ->
        Interrupted { completed; total }
    | Fleet.Fleet_done (slots, summary) ->
        let expand sh = function
          | Ok items -> items
          | Error e ->
              let e = Error.with_context e [ ("shard", string_of_int sh) ] in
              Array.make (snd ranges.(sh)) (Error e)
        in
        Done (Array.concat (Array.to_list (Array.mapi expand slots)), Some summary)

let run ?(on_checkpoint = fun ~completed:_ ~total:_ -> ()) ?on_shard_done
    backend ~what ~digest ~label ~total scope =
  match backend with
  | Local { pool; session } ->
      run_local ~on_checkpoint ~pool ~session ~what ~digest ~label ~total scope
  | Fleet { config; shards } ->
      run_fleet ~on_shard_done ~config ~shards ~digest ~label ~total scope
