let magic = "PROMISE-CKPT"
let format_version = 2

(* Bumped together with the library; folded into every digest so a
   checkpoint never survives a version boundary. *)
let library_tag = "promise-checkpoint-v1"

let digest_of_config ~kind parts =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (library_tag :: kind :: parts)))

let fail ~code ~path msg =
  Error.fail ~layer:"checkpoint" ~code ~context:[ ("path", path) ] msg

let tmp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

module For_tests = struct
  let dir_fsyncs = ref 0
end

(* The rename makes the checkpoint visible, but only an fsync of the
   containing directory makes the rename itself durable: a power cut
   after rename but before the directory entry hits disk can leave the
   old name (or nothing). Best-effort — some filesystems refuse
   O_RDONLY fsync on directories, and that must not fail the save. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try
         Unix.fsync fd;
         incr For_tests.dir_fsyncs
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Header after the magic: format version, digest length, digest,
   payload length (8 bytes, big-endian), payload MD5 (16 raw bytes);
   then the marshalled payload. The length and MD5 let [load] check
   the payload before [Marshal] ever sees it: Marshal trusts its input,
   and a flipped bit can otherwise unmarshal as a different value or
   claim an absurd allocation. *)
let save ~path ~config_digest payload =
  let tmp = tmp_path path in
  try
    let oc = open_out_bin tmp in
    (try
       let data = Marshal.to_string payload [] in
       let len = Bytes.create 8 in
       Bytes.set_int64_be len 0 (Int64.of_int (String.length data));
       output_string oc magic;
       output_binary_int oc format_version;
       output_binary_int oc (String.length config_digest);
       output_string oc config_digest;
       output_bytes oc len;
       output_string oc (Digest.string data);
       output_string oc data;
       flush oc;
       (* The failpoint models the disk dying at the worst moment: data
          staged in the temp file but never durable. Raising here drops
          into the handler below, which removes the torn temp file —
          exactly the cleanup a real fsync failure needs. *)
       (match Failpoint.check "checkpoint.save" with
       | Some Failpoint.Fail -> raise (Sys_error "injected fsync failure")
       | Some (Failpoint.Delay ns) ->
           Unix.sleepf (Int64.to_float ns /. 1e9)
       | Some Failpoint.Interrupt | None -> ());
       (* fsync before rename: the rename must not beat the data to disk *)
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path;
    fsync_dir path;
    Ok ()
  with
  | Sys_error msg | Unix.Unix_error (_, _, msg) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      fail ~code:Error.Invalid_operand ~path ("checkpoint write failed: " ^ msg)

let load ~path ~config_digest =
  if not (Sys.file_exists path) then
    fail ~code:Error.Invalid_operand ~path "no checkpoint at this path"
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let corrupt () =
            fail ~code:Error.Invalid_operand ~path "truncated or corrupt checkpoint"
          in
          let m = really_input_string ic (String.length magic) in
          if m <> magic then
            fail ~code:Error.Invalid_operand ~path "not a checkpoint file"
          else
            let v = input_binary_int ic in
            if v <> format_version then
              fail ~code:Error.Stale_checkpoint ~path
                (Printf.sprintf "checkpoint format v%d, expected v%d" v
                   format_version)
            else
              let dlen = input_binary_int ic in
              if dlen < 0 || dlen > 4096 then
                fail ~code:Error.Invalid_operand ~path "corrupt checkpoint header"
              else
                let stored = really_input_string ic dlen in
                if stored <> config_digest then
                  Error
                    (Error.make ~layer:"checkpoint"
                       ~code:Error.Stale_checkpoint
                       ~context:
                         [
                           ("path", path);
                           ("stored-digest", stored);
                           ("run-digest", config_digest);
                         ]
                       "checkpoint was written by a different run \
                        configuration; refusing to resume")
                else
                  let len =
                    String.get_int64_be (really_input_string ic 8) 0
                  in
                  let md5 = really_input_string ic 16 in
                  let left = Int64.of_int (in_channel_length ic - pos_in ic) in
                  if Int64.compare len 0L < 0 || Int64.compare len left > 0 then
                    corrupt ()
                  else
                    let data = really_input_string ic (Int64.to_int len) in
                    if Digest.string data <> md5 then corrupt ()
                    else Ok (Marshal.from_string data 0))
    with
    | Sys_error msg ->
        fail ~code:Error.Invalid_operand ~path ("cannot read checkpoint: " ^ msg)
    | End_of_file | Failure _ ->
        fail ~code:Error.Invalid_operand ~path "truncated or corrupt checkpoint"

let exists = Sys.file_exists

let remove path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; tmp_path path ]
