module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Instr = Mcr_program.Instr
module Loader = Mcr_program.Loader
module Barrier = Mcr_quiesce.Barrier
module Record = Mcr_replay.Record
module Replayer = Mcr_replay.Replayer
module Logdefs = Mcr_replay.Logdefs
module Objgraph = Mcr_trace.Objgraph
module Transfer = Mcr_trace.Transfer
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Trace = Mcr_obs.Trace
module Metrics = Mcr_obs.Metrics
module Flight = Mcr_obs.Flight
module Fault = Mcr_fault.Fault
module Err = Mcr_error
module Image = Mcr_image.Image

let reserved_fd_base = 1000
let protocol_version = Frame.protocol_version

(* Coordinator constant of the parallel transfer: relink the program and
   prelink shared libraries for the remapped immutable objects (Section 6). *)
let relink_ns = 25_000_000

type log_source = Recorder of Record.t | Replayed of Replayer.t

(* The manager's metric instruments; the registry itself travels across
   updates, so counters accumulate over the whole manager lineage. *)
type mset = {
  m_updates : Metrics.counter;
  m_commits : Metrics.counter;
  m_rollbacks : Metrics.counter;
  m_replayed : Metrics.counter;
  m_live : Metrics.counter;
  m_replay_conflicts : Metrics.counter;
  m_transfer_conflicts : Metrics.counter;
  m_transfer_pairs : Metrics.counter;
  m_transferred_objects : Metrics.counter;
  m_transferred_words : Metrics.counter;
  m_remapped_words : Metrics.counter;
  m_skipped_clean_words : Metrics.counter;
  m_precopy_bytes : Metrics.counter;
  m_processes : Metrics.gauge;
  m_quiesce_h : Metrics.histogram;
  m_cm_h : Metrics.histogram;
  m_st_h : Metrics.histogram;
  m_total_h : Metrics.histogram;
  m_downtime_h : Metrics.histogram;
  m_precopy_rounds_h : Metrics.histogram;
  m_pair_cost_h : Metrics.histogram;
  m_workers_g : Metrics.gauge;
  m_shard_words_h : Metrics.histogram;
  m_slo_violations : Metrics.counter;
  m_parked : Metrics.counter;
  m_resumed : Metrics.counter;
  m_aborted : Metrics.counter;
}

let make_mset metrics =
  {
    m_updates = Metrics.counter metrics "mcr_updates_total";
    m_commits = Metrics.counter metrics "mcr_update_commits_total";
    m_rollbacks = Metrics.counter metrics "mcr_update_rollbacks_total";
    m_replayed = Metrics.counter metrics "mcr_replayed_calls_total";
    m_live = Metrics.counter metrics "mcr_live_calls_total";
    m_replay_conflicts = Metrics.counter metrics "mcr_replay_conflicts_total";
    m_transfer_conflicts = Metrics.counter metrics "mcr_transfer_conflicts_total";
    m_transfer_pairs = Metrics.counter metrics "mcr_transfer_pairs_total";
    m_transferred_objects = Metrics.counter metrics "mcr_transferred_objects_total";
    m_transferred_words = Metrics.counter metrics "mcr_transferred_words_total";
    m_remapped_words = Metrics.counter metrics "mcr_transfer_remapped_words_total";
    m_skipped_clean_words =
      Metrics.counter metrics "mcr_transfer_skipped_clean_words_total";
    m_precopy_bytes = Metrics.counter metrics "mcr_precopy_bytes_total";
    m_processes = Metrics.gauge metrics "mcr_processes";
    m_quiesce_h = Metrics.histogram metrics "mcr_quiesce_ns";
    m_cm_h = Metrics.histogram metrics "mcr_control_migration_ns";
    m_st_h = Metrics.histogram metrics "mcr_state_transfer_ns";
    m_total_h = Metrics.histogram metrics "mcr_update_total_ns";
    m_downtime_h = Metrics.histogram metrics "mcr_update_downtime_ns";
    m_precopy_rounds_h =
      Metrics.histogram metrics ~bounds:[| 1; 2; 3; 4; 6; 8; 12; 16 |] "mcr_precopy_rounds";
    m_pair_cost_h = Metrics.histogram metrics "mcr_pair_cost_ns";
    m_workers_g = Metrics.gauge metrics "mcr_transfer_workers";
    m_shard_words_h = Metrics.histogram metrics "mcr_transfer_shard_words";
    m_slo_violations = Metrics.counter metrics "mcr_slo_violations_total";
    m_parked = Metrics.counter metrics "mcr_requests_parked_total";
    m_resumed = Metrics.counter metrics "mcr_requests_resumed_total";
    m_aborted = Metrics.counter metrics "mcr_requests_aborted_total";
  }

type t = {
  kernel : K.t;
  instr : Instr.t;
  prog_version : P.version;
  root_proc : K.proc;
  root_image : P.image;
  members : P.image list ref;
  log_source : log_source;
  ctl_path : string;
  ctl_pending : bool ref;
  ctl_result : string ref;
  ctl_sem : string;
  trace : Trace.t option;
  metrics : Metrics.t;
  mset : mset;
  (* Shared (and mutable) across the manager lineage — mcr-ctl commands
     adjust it between updates, and the manager a commit returns keeps
     honouring it. *)
  policy : Policy.t ref;
  (* The flight recorder ring: one record per update attempt, newest first,
     capped. Shared across the lineage like the metrics registry so
     EXPLAIN works against whichever incarnation is serving. *)
  flight_log : Flight.record list ref;
  flight_seq : int ref;
}

type report = {
  success : bool;
  quiesce_ns : int;
  control_migration_ns : int;
  state_transfer_ns : int;
  total_ns : int;
  downtime_ns : int;
  precopy_rounds : int;
  precopy_bytes : int;
  replayed_calls : int;
  live_calls : int;
  replay_conflicts : Replayer.conflict list;
  transfer_conflicts : Transfer.conflict list;
  transfers : (Logdefs.proc_key * Transfer.outcome) list;
  remap_ledger : Transfer.ledger;
  failure : Err.rollback_reason option;
  metrics : Metrics.snapshot;
  flight : Flight.record;
  parked_requests : int;
  resumed_requests : int;
  aborted_requests : int;
  client_latency : Mcr_util.Stats.hist_summary option;
}

let kernel t = t.kernel
let root_proc t = t.root_proc
let root_image t = t.root_image
let version t = t.prog_version
let images t = List.filter (fun (im : P.image) -> K.alive im.P.i_proc) !(t.members)
let ctl_path t = t.ctl_path
let update_requested t = !(t.ctl_pending)
let trace t = t.trace
let metrics (t : t) = t.metrics
let policy t = !(t.policy)
let set_policy t p = t.policy := p

let metrics_snapshot (t : t) =
  Metrics.set t.mset.m_processes (List.length (images t));
  Metrics.snapshot t.metrics

let flight_records t = !(t.flight_log)

(* ------------------------------------------------------------------ *)
(* Image bookkeeping hooks *)

let first_quiesce_heap_hook (im : P.image) =
  Heap.end_startup im.P.i_heap;
  (* the startup checkpoint owns the "startup" epoch; pre-copy rounds and
     the transfer own their own ("mcr.precopy", "mcr.transfer") so no
     consumer can clobber another's dirty baseline *)
  Aspace.epoch_reset im.P.i_aspace ~name:"startup"

let track_members ?trace members (img : P.image) =
  members := !members @ [ img ];
  Barrier.set_trace img.P.i_barrier trace;
  img.P.i_first_quiesce_hooks <- first_quiesce_heap_hook :: img.P.i_first_quiesce_hooks;
  img.P.i_child_hooks <-
    (fun child ->
      members := !members @ [ child ];
      Barrier.set_trace child.P.i_barrier trace)
    :: img.P.i_child_hooks

(* ------------------------------------------------------------------ *)
(* Controller thread (the libmcr side of mcr-ctl) *)

(* Policy commands accepted over the control socket. [None] means the
   command is not a policy command (generic ERR). *)
let policy_command policy cmd =
  let words =
    String.split_on_char ' ' (String.trim cmd) |> List.filter (fun s -> s <> "")
  in
  let ns_opt = function
    | "-" -> Ok None
    | s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok (Some n)
        | _ -> Error ())
  in
  match words with
  | "DEADLINES" :: rest -> begin
      match rest with
      | [ q; u ] -> begin
          match (ns_opt q, ns_opt u) with
          | Ok q, Ok u ->
              policy := Policy.with_deadlines ~quiesce_ns:q ~update_ns:u !policy;
              Some "OK"
          | _ -> Some "ERR usage: DEADLINES <quiesce_ns|-> <update_ns|->"
        end
      | _ -> Some "ERR usage: DEADLINES <quiesce_ns|-> <update_ns|->"
    end
  | "RETRY" :: rest -> begin
      match rest with
      | [ n; b ] -> begin
          match (int_of_string_opt n, int_of_string_opt b) with
          | Some n, Some b when n >= 0 && b >= 0 ->
              policy := { !policy with Policy.retries = n; retry_backoff_ns = b };
              Some "OK"
          | _ -> Some "ERR usage: RETRY <count> <backoff_ns>"
        end
      | _ -> Some "ERR usage: RETRY <count> <backoff_ns>"
    end
  | "FAULT" :: rest -> begin
      match rest with
      | [ "OFF" ] ->
          policy := Policy.with_fault_seed None !policy;
          Some "OK"
      | [ s ] -> begin
          match int_of_string_opt s with
          | Some seed ->
              policy := Policy.with_fault_seed (Some seed) !policy;
              Some "OK"
          | None -> Some "ERR usage: FAULT <seed>|OFF"
        end
      | _ -> Some "ERR usage: FAULT <seed>|OFF"
    end
  | "PRECOPY" :: rest -> begin
      let usage = "ERR usage: PRECOPY ON [max_rounds] [threshold_words] | OFF" in
      match rest with
      | [ "OFF" ] ->
          policy := Policy.with_precopy false !policy;
          Some "OK"
      | "ON" :: knobs -> begin
          let apply ?max_rounds ?threshold_words () =
            match Policy.with_precopy ?max_rounds ?threshold_words true !policy with
            | p ->
                policy := p;
                Some "OK"
            | exception Invalid_argument _ -> Some usage
          in
          match knobs with
          | [] -> apply ()
          | [ r ] -> begin
              match int_of_string_opt r with
              | Some r -> apply ~max_rounds:r ()
              | None -> Some usage
            end
          | [ r; w ] -> begin
              match (int_of_string_opt r, int_of_string_opt w) with
              | Some r, Some w -> apply ~max_rounds:r ~threshold_words:w ()
              | _ -> Some usage
            end
          | _ -> Some usage
        end
      | _ -> Some usage
    end
  | "WORKERS" :: rest -> begin
      let usage = "ERR usage: WORKERS <count>" in
      match rest with
      | [ n ] -> begin
          match int_of_string_opt n with
          | Some n when n >= 1 ->
              policy := Policy.with_transfer_workers n !policy;
              Some "OK"
          | Some _ | None -> Some usage
        end
      | _ -> Some usage
    end
  | "REMAP" :: rest -> begin
      let usage = "ERR usage: REMAP ON|OFF" in
      match rest with
      | [ "ON" ] ->
          policy := Policy.with_transfer_remap true !policy;
          Some "OK"
      | [ "OFF" ] ->
          policy := Policy.with_transfer_remap false !policy;
          Some "OK"
      | _ -> Some usage
    end
  | "SLO" :: rest -> begin
      let usage = "ERR usage: SLO <downtime_ns|-> <total_ns|->" in
      match rest with
      | [ d; u ] -> begin
          match (ns_opt d, ns_opt u) with
          | Ok d, Ok u ->
              policy := Policy.with_slo ~downtime_ns:d ~total_ns:u !policy;
              Some "OK"
          | _ -> Some usage
        end
      | _ -> Some usage
    end
  | "PARKING" :: rest -> begin
      let usage = "ERR usage: PARKING ON [drain_ns] | OFF" in
      match rest with
      | [ "OFF" ] ->
          policy := Policy.with_request_parking false !policy;
          Some "OK"
      | [ "ON" ] ->
          policy := Policy.with_request_parking true !policy;
          Some "OK"
      | [ "ON"; d ] -> begin
          match int_of_string_opt d with
          | Some d when d >= 0 ->
              policy := Policy.with_request_parking ~drain_ns:d true !policy;
              Some "OK"
          | Some _ | None -> Some usage
        end
      | _ -> Some usage
    end
  | _ -> None

(* SAVE/RESTORE serve persistent checkpoint images over the control
   socket. Dispatch runs on the controller thread of the cooperative
   scheduler, so the capture instant is atomic by construction: no other
   simulated thread can interleave a write between two captured words.
   The image file itself lives on the host filesystem — it must survive
   kernel teardown. *)
let checkpoint_command ~live ~policy cmd =
  let words =
    String.split_on_char ' ' (String.trim cmd) |> List.filter (fun s -> s <> "")
  in
  match words with
  | "SAVE" :: rest -> (
      match rest with
      | [ path ] -> (
          match live () with
          | [] -> Some (Error "program not running")
          | members -> (
              let kernel = (List.hd members).P.i_kernel in
              match
                Image.save kernel ~path ~members
                  ~policy_text:(Policy.to_kv !policy) ()
              with
              | Ok img -> Some (Ok (string_of_int (Image.fingerprint img)))
              | Error e -> Some (Error (Image.error_to_string e))))
      | _ -> Some (Error "usage: SAVE <path>"))
  | "RESTORE" :: rest -> (
      match rest with
      | [ path ] -> (
          match Image.read ~path with
          | Error e -> Some (Error (Image.error_to_string e))
          | Ok img -> (
              match live () with
              | [] -> Some (Error "program not running")
              | members -> (
                  match Image.install img ~members with
                  | Ok r ->
                      Some
                        (Ok
                           (Printf.sprintf "paired=%d skipped=%d unmatched=%d fingerprint=%d"
                              r.Image.paired_procs r.Image.skipped_saved_procs
                              r.Image.unmatched_live_procs (Image.fingerprint img)))
                  | Error e -> Some (Error (Image.error_to_string e)))))
      | _ -> Some (Error "usage: RESTORE <path>"))
  | _ -> None

(* EXPLAIN serves the flight-recorder ring: 1 is the newest record. *)
let explain_nth flight_log n =
  match List.nth_opt !flight_log (n - 1) with
  | Some r -> Ok (Flight.to_json r)
  | None ->
      Error
        (if !flight_log = [] then "no flight records"
         else Printf.sprintf "no flight record %d" n)

let stats_text (m : t) () =
  Metrics.set m.mset.m_processes (List.length (images m));
  Metrics.render (Metrics.snapshot m.metrics)

let ctl_sem_of proc = Printf.sprintf "mcr.ctl.done.%d" (K.pid proc)

(* Spawn [m]'s controller thread: it serves the control socket for as long
   as [m]'s root process lives. *)
let start_ctl (m : t) =
  let live () = images m in
  let dispatch ~versioned cmd =
    let has_prefix p =
      String.length cmd >= String.length p && String.sub cmd 0 (String.length p) = p
    in
    if has_prefix "UPDATE" then begin
      m.ctl_pending := true;
      ignore (K.syscall (S.Sem_wait { name = m.ctl_sem; timeout_ns = None }));
      if versioned then !(m.ctl_result) else Frame.legacy_update_frame !(m.ctl_result)
    end
    else if has_prefix "STATS" then
      (* metrics snapshots are cheap and never block on the update
         semaphore: reply immediately *)
      if versioned then Frame.ok_payload (stats_text m ()) else stats_text m ()
    else if has_prefix "EXPLAIN" then begin
      let arg = String.trim (String.sub cmd 7 (String.length cmd - 7)) in
      let nth =
        match arg with
        | "" | "LAST" -> Some 1
        | s -> (
            match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
      in
      match nth with
      | None -> if versioned then Frame.err "usage: EXPLAIN [LAST|<n>]" else "ERR"
      | Some n -> (
          match explain_nth m.flight_log n with
          | Ok json ->
              (* legacy connections get the raw payload, like legacy STATS *)
              if versioned then Frame.ok_payload json else json
          | Error e -> if versioned then Frame.err e else "ERR")
    end
    else begin
      match checkpoint_command ~live ~policy:m.policy cmd with
      | Some (Ok v) -> if versioned then Frame.ok_inline v else "OK"
      | Some (Error e) -> if versioned then Frame.err e else "ERR"
      | None -> (
          match policy_command m.policy cmd with
          | Some r -> r
          | None -> if versioned then "ERR unknown command" else "ERR")
    end
  in
  (* Ctl_server.spawn unlinks a stale socket name before binding *)
  Ctl_server.spawn m.kernel m.root_proc ~path:m.ctl_path ~dispatch ()

(* ------------------------------------------------------------------ *)
(* Launch *)

let launch kernel ?(instr = Instr.full) ?profiler ?trace ?policy prog_version =
  let members = ref [] in
  let image_slot = ref None in
  let proc =
    Loader.launch kernel ~instr ?profiler prog_version ~on_image:(fun img ->
        image_slot := Some img;
        track_members ?trace members img)
  in
  let image =
    match !image_slot with Some i -> i | None -> invalid_arg "Manager.launch: no image"
  in
  let recorder = Record.start kernel image in
  let metrics = Metrics.create () in
  let m =
    {
      kernel;
      instr;
      prog_version;
      root_proc = proc;
      root_image = image;
      members;
      log_source = Recorder recorder;
      ctl_path = "/run/mcr/" ^ prog_version.P.prog ^ ".sock";
      ctl_pending = ref false;
      ctl_result = ref "";
      ctl_sem = ctl_sem_of proc;
      trace;
      metrics;
      mset = make_mset metrics;
      policy = ref (Option.value policy ~default:Policy.default);
      flight_log = ref [];
      flight_seq = ref 0;
    }
  in
  start_ctl m;
  m

let wait_startup t ?(max_ns = 10_000_000_000) () =
  K.run_until t.kernel
    ~max_ns:(K.clock_ns t.kernel + max_ns)
    (fun () -> t.root_image.P.i_startup_complete)

(* ------------------------------------------------------------------ *)
(* Quiescence *)

let request_all t = List.iter (fun (im : P.image) -> Barrier.request im.P.i_barrier) (images t)

let all_quiesced t =
  List.for_all (fun (im : P.image) -> Barrier.quiesced im.P.i_barrier) (images t)

let release_all t =
  List.iter
    (fun (im : P.image) ->
      if Barrier.requested im.P.i_barrier then Barrier.release im.P.i_barrier)
    (images t)

let quiesce_only t =
  let t0 = K.clock_ns t.kernel in
  request_all t;
  let ok = K.run_until t.kernel ~max_ns:(t0 + 1_000_000_000) (fun () -> all_quiesced t) in
  let elapsed = K.clock_ns t.kernel - t0 in
  release_all t;
  if ok then Some elapsed else None

(* ------------------------------------------------------------------ *)
(* Persistent checkpoint images (host-side API; the ctl spellings are
   SAVE/RESTORE, handled by [checkpoint_command]) *)

let with_quiesced t f =
  if images t = [] then Error "program not running"
  else begin
    let t0 = K.clock_ns t.kernel in
    request_all t;
    let ok =
      K.run_until t.kernel ~max_ns:(t0 + 5_000_000_000) (fun () -> all_quiesced t)
    in
    if not ok then begin
      release_all t;
      Error (Err.to_string Err.Quiescence_did_not_converge)
    end
    else begin
      let r = f () in
      release_all t;
      r
    end
  end

let save_image t ~path =
  with_quiesced t (fun () ->
      match
        Image.save t.kernel ~path ~members:(images t)
          ~policy_text:(Policy.to_kv !(t.policy)) ()
      with
      | Ok img -> Ok img
      | Error e -> Error (Image.error_to_string e))

let restore_image t img =
  with_quiesced t (fun () ->
      match Image.install img ~members:(images t) with
      | Ok rep -> Ok rep
      | Error e -> Error (Image.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Read-only measurement hooks *)

let merge_side (a : Objgraph.side) (b : Objgraph.side) =
  a.Objgraph.ptr <- a.Objgraph.ptr + b.Objgraph.ptr;
  a.Objgraph.src_static <- a.Objgraph.src_static + b.Objgraph.src_static;
  a.Objgraph.src_dynamic <- a.Objgraph.src_dynamic + b.Objgraph.src_dynamic;
  a.Objgraph.targ_static <- a.Objgraph.targ_static + b.Objgraph.targ_static;
  a.Objgraph.targ_dynamic <- a.Objgraph.targ_dynamic + b.Objgraph.targ_dynamic;
  a.Objgraph.targ_lib <- a.Objgraph.targ_lib + b.Objgraph.targ_lib

let trace_statistics t =
  let acc =
    {
      Objgraph.precise =
        { Objgraph.ptr = 0; src_static = 0; src_dynamic = 0; targ_static = 0; targ_dynamic = 0;
          targ_lib = 0 };
      likely =
        { Objgraph.ptr = 0; src_static = 0; src_dynamic = 0; targ_static = 0; targ_dynamic = 0;
          targ_lib = 0 };
    }
  in
  List.iter
    (fun im ->
      let a = Objgraph.analyze im in
      merge_side acc.Objgraph.precise a.Objgraph.stats.Objgraph.precise;
      merge_side acc.Objgraph.likely a.Objgraph.stats.Objgraph.likely)
    (images t);
  acc

type memory_stats = {
  app_bytes : int;
  mcr_bytes : int;
  resident_bytes : int;
  tag_metadata_words : int;
  startup_log_entries : int;
  processes : int;
}

(* Footprint model for the MCR runtime, calibrated to the paper's numbers:
   libmcr.so plus per-process runtime structures, a fat record per tagged
   object ("our tags ... are extremely space-inefficient", Section 8), and
   the in-memory startup log. *)
let libmcr_bytes_per_proc = 96 * 1024
let tag_record_bytes = 240
let log_entry_bytes = 256

let memory_stats t =
  let imgs = images t in
  let app =
    List.fold_left (fun acc (im : P.image) -> acc + Aspace.touched_bytes im.P.i_aspace) 0 imgs
  in
  let tags =
    List.fold_left
      (fun acc (im : P.image) ->
        acc
        + Heap.metadata_words im.P.i_heap
        + Heap.metadata_words im.P.i_lib_heap
        + List.fold_left (fun a (_, p) -> a + (Pool.stats p).Pool.tag_words) 0 im.P.i_pools)
      0 imgs
  in
  let log_entries =
    match t.log_source with
    | Recorder r -> Record.entry_count r
    | Replayed r ->
        List.fold_left
          (fun acc (l : Logdefs.plog) -> acc + List.length l.Logdefs.entries)
          0 (Replayer.new_logs r)
  in
  let instrumented = t.instr.Instr.static_instr || t.instr.Instr.dynamic_instr in
  let mcr =
    if not instrumented then 0
    else
      (List.length imgs * libmcr_bytes_per_proc)
      + (tags / 2 * tag_record_bytes) (* 2 in-band words per tagged object *)
      + (log_entries * log_entry_bytes)
  in
  {
    app_bytes = app;
    mcr_bytes = mcr;
    resident_bytes = app + mcr;
    tag_metadata_words = tags;
    startup_log_entries = log_entries;
    processes = List.length imgs;
  }

(* ------------------------------------------------------------------ *)
(* The live update *)

let respond_ctl t result =
  if !(t.ctl_pending) then begin
    t.ctl_result := result;
    K.post_semaphore t.kernel t.ctl_sem;
    (* let the controller thread deliver the reply *)
    K.run_for t.kernel 5_000_000;
    t.ctl_pending := false
  end

let reinit_ctx (im : P.image) th =
  { P.kernel = im.P.i_kernel; thread = th; proc = im.P.i_proc; image = im }

(* The new version, once an attempt has launched it: a rollback kills it, a
   commit returns [mgr]. *)
type next = {
  mgr : t;
  rep : Replayer.t;
  logs : Logdefs.plog list;  (* the old version's startup logs it replayed *)
  in_update : bool ref;  (* children it forks get startup barriers until the end *)
}

(* One update attempt, threaded through the stage functions below. Each
   in-window attribution segment is measured where it elapses, so the
   segments summing to downtime_ns is a real cross-check (property-tested
   to hold exactly on every pipeline path), not an identity. Recording
   never touches the clock. *)
type attempt = {
  t : t;  (* the manager being updated *)
  pol : Policy.t;
  fault : Fault.t option;
  target : P.version;
  index : int;
  prior : Flight.record list;
  t0 : int;
  (* The service-interruption window opens when quiescence is requested:
     immediately for single-shot updates, only after the pre-copy rounds
     otherwise. Failures before the window opens cost zero downtime. *)
  mutable window_start : int option;
  mutable quiesce_ns : int;
  mutable control_migration_ns : int;
  mutable state_transfer_ns : int;
  mutable precopy_rounds : int;
  mutable precopy_bytes : int;
  parking0 : K.parking_stats;
  mutable listeners_parked : bool;
  (* persistent checkpoint image of the old version, snapped at its
     quiescent point when the policy asks for one; the flight record is
     attached and the file written once the attempt ends, success or
     rollback (a rolled-back attempt's image is exactly what
     [mcr-postmortem --replay] feeds on) *)
  mutable image : Image.t option;
  mutable attr : Flight.attribution;  (* teardown is filled in by [finish] *)
  mutable rounds : Flight.round list;  (* newest first *)
  (* word counters, not durations: never part of the attribution sum *)
  mutable remapped_words : int;
  mutable skipped_clean_words : int;
  (* set on entry to either exit; the tail from there to the record build
     — ctl reply delivery, kills, releases — is the teardown segment *)
  mutable teardown_from : int;
  sessions : (Logdefs.proc_key, Transfer.precopy) Hashtbl.t;
  mutable transfers : (Logdefs.proc_key * Transfer.outcome) list;  (* newest first *)
  ledger : Transfer.ledger;  (* the pages this attempt's remap shared *)
  mutable transfer_conflicts : Transfer.conflict list;  (* newest first *)
  mutable next : next option;
}

let now st = K.clock_ns st.t.kernel
let stage_begin ?args st name =
  Trace.span_begin st.t.trace ~pid:(K.pid st.t.root_proc) ~cat:"stage" ?args name

let stage_end ?args st name =
  Trace.span_end st.t.trace ~pid:(K.pid st.t.root_proc) ~cat:"stage" ?args name

let stage_instant ?args st name =
  Trace.instant st.t.trace ~pid:(K.pid st.t.root_proc) ~cat:"stage" ?args name

let downtime_ns st = match st.window_start with Some w -> now st - w | None -> 0

let deadline_exceeded st =
  match st.pol.Policy.update_deadline_ns with Some d -> now st - st.t0 >= d | None -> false

let set_refusals imgs f =
  List.iter (fun (im : P.image) -> Barrier.set_refusal im.P.i_barrier f) imgs

(* In-flight request parking. Listeners are parked (new connections queue
   kernel-side instead of getting ECONNREFUSED) just before the window
   opens, the old version gets a bounded drain to finish requests it
   already accepted, and whichever version survives the attempt unparks —
   listener descriptors are shared across versions, so the parked queue
   drains into the survivor's accept backlog. *)
let park st =
  if st.pol.Policy.request_parking then begin
    let k = st.t.kernel in
    let n =
      List.fold_left (fun acc (im : P.image) -> acc + K.park_listeners k im.P.i_proc) 0
        (images st.t)
    in
    st.listeners_parked <- true;
    stage_instant st ~args:[ ("listeners", string_of_int n) ] "park";
    if st.pol.Policy.drain_ns > 0 then K.run_for k st.pol.Policy.drain_ns
  end

(* Unpark into the survivor [imgs]; returns the attempt's conservation
   ledger entry (parked, resumed, aborted), folded into the metrics here and
   into the report by [finish]. *)
let unpark st imgs =
  let k = st.t.kernel and mset = st.t.mset in
  if st.listeners_parked then begin
    let n =
      List.fold_left (fun acc (im : P.image) -> acc + K.unpark_listeners k im.P.i_proc) 0 imgs
    in
    st.listeners_parked <- false;
    stage_instant st ~args:[ ("resumed", string_of_int n) ] "unpark"
  end;
  let s = K.parking_stats k and s0 = st.parking0 in
  let pk = s.K.parked - s0.K.parked
  and rs = s.K.resumed - s0.K.resumed
  and ab = s.K.aborted - s0.K.aborted in
  Metrics.incr ~by:pk mset.m_parked;
  Metrics.incr ~by:rs mset.m_resumed;
  Metrics.incr ~by:ab mset.m_aborted;
  (pk, rs, ab)

let explain st (reason, stage) =
  {
    Flight.e_reason = Err.to_string reason;
    e_stage = stage;
    e_conflicts =
      List.map
        (fun (c : Err.conflict_obj) ->
          {
            Flight.c_kind = c.Err.co_kind;
            c_addr = c.Err.co_addr;
            c_ty = c.Err.co_ty;
            c_callstack = c.Err.co_callstack;
            c_shard = c.Err.co_shard;
            c_round = c.Err.co_round;
            c_detail = c.Err.co_detail;
          })
        (Err.conflict_objs reason);
    e_fault =
      (match Option.map Fault.fired st.fault with
      | None | Some [] -> None
      | Some fired -> Some (String.concat "," fired));
  }

let write_image st ~dir (record : Flight.record) img =
  let sanitize c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c | _ -> '-'
  in
  let base = String.map sanitize st.t.prog_version.P.prog in
  let path =
    Filename.concat dir (Printf.sprintf "%s-update-%d.mcrimg" base record.Flight.f_seq)
  in
  match Image.write (Image.with_flight_json img (Flight.to_json record)) ~path with
  | Ok () -> stage_instant st ~args:[ ("path", path) ] "image.write"
  | Error e ->
      Logs.warn (fun m ->
          m "checkpoint image write to %s failed: %s" path (Image.error_to_string e))

(* The one exit tail, shared by commit and rollback: fold the attempt into
   the metrics, build its flight record (ring, optional image file) and its
   report. [owner] is the manager handed back to the caller. *)
let finish st ~(owner : t) ~failure ~parking =
  let t = st.t and mset = st.t.mset and pol = st.pol in
  let replayed_calls, live_calls, replay_conflicts =
    match st.next with
    | Some n -> (Replayer.replayed_calls n.rep, Replayer.live_calls n.rep, Replayer.conflicts n.rep)
    | None -> (0, 0, [])
  in
  let transfer_conflicts = List.rev st.transfer_conflicts in
  Metrics.incr ~by:replayed_calls mset.m_replayed;
  Metrics.incr ~by:live_calls mset.m_live;
  Metrics.incr ~by:(List.length replay_conflicts) mset.m_replay_conflicts;
  Metrics.incr ~by:(List.length transfer_conflicts) mset.m_transfer_conflicts;
  let total_ns = now st - st.t0 and dt = downtime_ns st in
  Metrics.observe mset.m_total_h total_ns;
  Metrics.observe mset.m_downtime_h dt;
  Metrics.observe mset.m_precopy_rounds_h st.precopy_rounds;
  if st.precopy_bytes > 0 then Metrics.incr ~by:st.precopy_bytes mset.m_precopy_bytes;
  stage_end st "update";
  let seq = !(t.flight_seq) + 1 in
  t.flight_seq := seq;
  let slo =
    match (pol.Policy.slo_downtime_ns, pol.Policy.slo_total_ns) with
    | None, None -> None
    | d, u ->
        Some
          {
            Flight.s_downtime_budget_ns = d;
            s_total_budget_ns = u;
            s_downtime_ok = (match d with Some b -> dt <= b | None -> true);
            s_total_ok = (match u with Some b -> total_ns <= b | None -> true);
          }
  in
  (match slo with
  | Some s when Flight.slo_violated s -> Metrics.incr mset.m_slo_violations
  | _ -> ());
  let teardown = match st.window_start with Some _ -> now st - st.teardown_from | None -> 0 in
  let flight =
    {
      Flight.f_seq = seq;
      f_attempt = st.index;
      f_prog = t.prog_version.P.prog;
      f_from = t.prog_version.P.version_tag;
      f_to = st.target.P.version_tag;
      f_success = failure = None;
      f_start_ns = st.t0;
      f_total_ns = total_ns;
      f_downtime_ns = dt;
      f_precopy = pol.Policy.precopy;
      f_workers = pol.Policy.transfer_workers;
      f_remapped_words = st.remapped_words;
      f_skipped_clean_words = st.skipped_clean_words;
      f_rounds = List.rev st.rounds;
      f_attribution = { st.attr with Flight.a_teardown_ns = teardown };
      f_slo = slo;
      f_explanation = Option.map (explain st) failure;
      f_prior = st.prior;
    }
  in
  t.flight_log := flight :: List.filteri (fun i _ -> i < 31) !(t.flight_log);
  (match (pol.Policy.image_dir, st.image) with
  | Some dir, Some img -> write_image st ~dir flight img
  | _ -> ());
  let parked_requests, resumed_requests, aborted_requests = parking in
  ( owner,
    {
      success = failure = None;
      quiesce_ns = st.quiesce_ns;
      control_migration_ns = st.control_migration_ns;
      state_transfer_ns = st.state_transfer_ns;
      total_ns;
      downtime_ns = dt;
      precopy_rounds = st.precopy_rounds;
      precopy_bytes = st.precopy_bytes;
      replayed_calls;
      live_calls;
      replay_conflicts;
      transfer_conflicts;
      transfers = List.rev st.transfers;
      remap_ledger = st.ledger;
      failure = Option.map fst failure;
      metrics = metrics_snapshot owner;
      flight;
      parked_requests;
      resumed_requests;
      aborted_requests;
      client_latency =
        Option.map Metrics.hist_snapshot_summary
          (Metrics.find_histogram (Metrics.snapshot t.metrics) "mcr_request_latency_ns");
    } )

(* The attempt is over for the new version: its children get no more
   startup barriers and the syscall fault hook comes off. *)
let end_update st n =
  n.in_update := false;
  K.set_fault_hook st.t.kernel None

(* The one failure exit: the old version resumes and the new one, if it was
   started, dies. Nothing else was written, so there is nothing else to
   undo. *)
let abort st ((reason, _) as failure) =
  let t = st.t and k = st.t.kernel in
  st.teardown_from <- now st;
  let reason_s = Err.to_string reason in
  Option.iter
    (fun n ->
      end_update st n;
      stage_begin st ~args:[ ("reason", reason_s) ] "rollback";
      (* remapped pages in the dying new image may still share frames with
         the surviving old image: give the survivor sole ownership so no
         remap outlives the window *)
      Transfer.ledger_release st.ledger ~dying:`New;
      List.iter
        (fun (im : P.image) -> if K.alive im.P.i_proc then K.kill_process k im.P.i_proc ~status:1)
        !(n.mgr.members))
    st.next;
  release_all t;
  let parking = unpark st (images t) in
  respond_ctl t ("ERR " ^ reason_s);
  Metrics.incr t.mset.m_rollbacks;
  Metrics.incr (Metrics.counter t.metrics (Err.metric_name reason));
  (match st.next with
  | Some _ -> stage_end st "rollback"
  (* before restart the whole attempt was the checkpoint stage *)
  | None -> st.quiesce_ns <- now st - st.t0);
  stage_instant st ~args:[ ("reason", reason_s) ] "update.fail";
  finish st ~owner:t ~failure:(Some failure) ~parking

(* Checkpoint: quiesce the running version. The window opens here. *)
let quiesce st =
  let t = st.t and k = st.t.kernel and pol = st.pol in
  stage_begin st "quiesce";
  (* park first, then drain: new arrivals queue kernel-side while the old
     version finishes what it already accepted, so the barrier finds the
     accept loops idle instead of mid-request *)
  park st;
  (* fault injection: while armed, old-version threads decline the barrier *)
  (match st.fault with
  | Some f when Fault.fires f Fault.Quiesce_refusal ->
      set_refusals (images t) (Some (fun () -> Fault.fires f Fault.Quiesce_refusal))
  | _ -> ());
  let wstart = K.clock_ns k in
  st.window_start <- Some wstart;
  request_all t;
  let budget = Option.value pol.Policy.quiesce_deadline_ns ~default:5_000_000_000 in
  let max_ns =
    match pol.Policy.update_deadline_ns with
    | Some u -> min (wstart + budget) (st.t0 + u)
    | None -> wstart + budget
  in
  let ok = K.run_until k ~max_ns (fun () -> all_quiesced t) in
  (match st.fault with
  | Some f ->
      ignore (Fault.consume f Fault.Quiesce_refusal);
      set_refusals (images t) None
  | None -> ());
  stage_end st ~args:[ ("converged", if ok then "yes" else "no") ] "quiesce";
  if ok then begin
    st.quiesce_ns <- K.clock_ns k - wstart;
    Metrics.observe t.mset.m_quiesce_h st.quiesce_ns;
    if pol.Policy.image_dir <> None then
      st.image <-
        Some
          (Image.capture k ~members:(images t) ~policy_text:(Policy.to_kv pol)
             ~target_tag:st.target.P.version_tag ())
  end;
  (* attribution: all in-window time so far is quiescence wait, converged
     or not *)
  let waited = K.clock_ns k - wstart in
  st.attr <- { st.attr with Flight.a_quiesce_ns = waited };
  if deadline_exceeded st then Error (Err.Update_deadline_exceeded, "quiesce")
  else if not ok then
    let deadline_hit =
      match pol.Policy.quiesce_deadline_ns with Some d -> waited >= d | None -> false
    in
    Error (Barrier.failure_reason ~deadline_hit, "quiesce")
  else Ok ()

let next_quiesced n =
  match images n.mgr with
  | [] -> false
  | imgs ->
      List.for_all
        (fun (im : P.image) -> im.P.i_startup_complete && Barrier.quiesced im.P.i_barrier)
        imgs

let old_proc_of_key st n key =
  match key with
  | Logdefs.Root -> Some st.t.root_proc
  | _ ->
      List.find_map
        (fun (l : Logdefs.plog) ->
          if l.Logdefs.key = key then K.find_proc st.t.kernel l.Logdefs.pid else None)
        n.logs

(* Restart: launch the new version under replay, with quiescence
   pre-requested so it accepts no external events, until it reaches its
   own quiescent startup point. *)
let restart_replay st =
  let t = st.t and k = st.t.kernel and fault = st.fault in
  let t1 = K.clock_ns k in
  let logs =
    match t.log_source with Recorder r -> Record.logs r | Replayed r -> Replayer.new_logs r
  in
  (* global inheritance: every reserved-range descriptor from every old
     process, deduplicated (separability makes numbers globally unique).
     Reserved-range descriptors are created during startup, so the set is
     stable whether or not the old version is still serving (pre-copy). *)
  let inherited : (int * K.proc) list =
    List.fold_left
      (fun acc (im : P.image) ->
        List.fold_left
          (fun acc fd ->
            if fd >= reserved_fd_base && not (List.mem_assoc fd acc) then
              (fd, im.P.i_proc) :: acc
            else acc)
          acc (K.fds im.P.i_proc))
      [] (images t)
    |> List.rev
  in
  stage_begin st "restart_replay";
  let members = ref [] in
  let root_slot = ref None in
  let in_update = ref true in
  (* fault injection: new-version threads decline their startup barrier *)
  let arm_startup_hang (img : P.image) =
    match fault with
    | Some f when Fault.fires f Fault.Startup_hang ->
        Barrier.set_refusal img.P.i_barrier (Some (fun () -> Fault.fires f Fault.Startup_hang))
    | _ -> ()
  in
  let proc =
    Loader.launch k ~instr:t.instr st.target ~on_image:(fun img ->
        root_slot := Some img;
        track_members ?trace:t.trace members img;
        (* reinitiate quiescence detection before startup runs, so the new
           version is never exposed to external events (Section 5) *)
        Barrier.request img.P.i_barrier;
        arm_startup_hang img;
        img.P.i_child_hooks <-
          (fun child ->
            if !in_update then begin
              Barrier.request child.P.i_barrier;
              arm_startup_hang child
            end)
          :: img.P.i_child_hooks)
  in
  let root = Option.get !root_slot in
  List.iter (fun (fd, src) -> ignore (K.transfer_fd k ~src ~fd ~dst:proc ~at:fd)) inherited;
  let rep =
    Replayer.start k ?trace:t.trace ?fault root ~logs ~inherited:(List.map fst inherited)
  in
  (* fault injection: syscall-level failures, scoped to new-version
     processes so the serving old version never sees them *)
  (match fault with
  | Some f
    when List.exists (function Fault.Syscall_failure _ -> true | _ -> false) (Fault.armed f)
    ->
      K.set_fault_hook k
        (Some
           (fun th call ->
             let pid = K.pid (K.thread_proc th) in
             if List.exists (fun (im : P.image) -> K.pid im.P.i_proc = pid) !members then
               Fault.syscall_result f ~call
             else None))
  | _ -> ());
  (* the new version gets its own controller thread; its replayed
     unix_listen inherits the control socket *)
  let mgr =
    {
      t with
      prog_version = st.target;
      root_proc = proc;
      root_image = root;
      members;
      log_source = Replayed rep;
      ctl_pending = ref false;
      ctl_result = ref "";
      ctl_sem = ctl_sem_of proc;
    }
  in
  start_ctl mgr;
  let n = { mgr; rep; logs; in_update } in
  st.next <- Some n;
  (* fault injection: kill the new version mid-startup *)
  (match fault with
  | Some f when Fault.consume f Fault.Startup_crash ->
      ignore (K.run_until k ~max_ns:(K.clock_ns k + 50_000_000) (fun () -> false));
      if K.alive proc then K.kill_process k proc ~status:139
  | _ -> ());
  let startup_max =
    let cap = t1 + 10_000_000_000 in
    match st.pol.Policy.update_deadline_ns with Some d -> min cap (st.t0 + d) | None -> cap
  in
  let startup_ok =
    K.run_until k ~max_ns:startup_max (fun () ->
        next_quiesced n || (not (K.alive proc)) || Replayer.conflicts rep <> [])
  in
  (match fault with
  | Some f ->
      ignore (Fault.consume f Fault.Startup_hang);
      set_refusals !members None
  | None -> ());
  st.control_migration_ns <- K.clock_ns k - t1;
  (* attribution: restart+replay elapses inside the window only for
     single-shot updates; under pre-copy it runs while the old version
     still serves *)
  if not st.pol.Policy.precopy then
    st.attr <- { st.attr with Flight.a_restart_ns = st.control_migration_ns };
  stage_end st "restart_replay";
  Metrics.observe t.mset.m_cm_h st.control_migration_ns;
  let fail reason = Error (reason, "restart_replay") in
  if not (K.alive proc) then fail Err.Startup_crashed
  else
    match Replayer.rollback_reason rep with
    | Some reason -> fail reason
    | None ->
        if deadline_exceeded st then fail Err.Update_deadline_exceeded
        else if not (startup_ok && next_quiesced n) then fail Err.Startup_not_quiescent
        else Ok n

let precopy_epoch = "mcr.precopy"

(* One pair's pre-copy round: trace the old process's reachable graph and
   stage the delta since the previous round into the pair's session.
   Accumulates the round's (critical-path cost, delta words). *)
let precopy_pair st n (cost, delta) (key, _new_pid) =
  let workers = st.pol.Policy.transfer_workers in
  match old_proc_of_key st n key with
  | Some oldp when K.alive oldp -> (
      match P.image_of_proc oldp with
      | Some oi ->
          let aspace = oi.P.i_aspace in
          let since = Aspace.epoch_find aspace ~name:precopy_epoch in
          let analysis = Objgraph.analyze ?trace:st.t.trace ?cost_since:since oi in
          let session =
            match Hashtbl.find_opt st.sessions key with
            | Some s -> s
            | None ->
                let s = Transfer.precopy_create () in
                Hashtbl.replace st.sessions key s;
                s
          in
          let rs =
            Transfer.precopy_round session ~old_image:oi ~analysis ?since
              ~dirty_only:st.pol.Policy.dirty_only ~workers ()
          in
          (* staging is host-side (no program ran), so the write sequence
             is unchanged since [since] was read: resetting now is the same
             mark *)
          Aspace.epoch_reset aspace ~name:precopy_epoch;
          st.precopy_bytes <- st.precopy_bytes + (rs.Transfer.round_words * Addr.word_size);
          (* rounds run per-pair in parallel, like transfers; within a pair
             the worker pool shards the round, so the pair pays its
             critical path *)
          ( max cost (Objgraph.trace_critical_ns analysis ~workers + rs.Transfer.round_cost_ns),
            delta + rs.Transfer.round_words )
      | None -> (cost, delta))
  | _ -> (cost, delta)

(* Pre-copy: speculative tracing + staging rounds while the old version
   keeps serving, then the prepaid relink, then quiescence opens the window
   for the final delta. Staging is host-side only (no new-version writes),
   so failing here needs no undo beyond the shared rollback. A no-op
   without [pol.precopy]: the window opened before restart. *)
let precopy ?on_precopy_round st n =
  if not st.pol.Policy.precopy then Ok ()
  else begin
    stage_begin st "precopy";
    (* each attempt is a fresh pre-copy session: forget any epoch a
       previous (rolled-back) attempt left on the old images so round one
       stages the full copy set and pays full tracing *)
    List.iter
      (fun (im : P.image) -> Aspace.epoch_remove im.P.i_aspace ~name:precopy_epoch)
      (images st.t);
    let max_rounds = max 1 st.pol.Policy.precopy_max_rounds in
    let threshold = max 0 st.pol.Policy.precopy_threshold_words in
    let rec round r =
      if deadline_exceeded st then Error Err.Update_deadline_exceeded
      else begin
        st.precopy_rounds <- st.precopy_rounds + 1;
        let cost, delta = List.fold_left (precopy_pair st n) (0, 0) (Replayer.pairs n.rep) in
        stage_instant st
          ~args:
            [ ("round", string_of_int r); ("delta_words", string_of_int delta);
              ("cost_ns", string_of_int cost) ]
          "precopy.round";
        st.rounds <- { Flight.r_words = delta; r_cost_ns = cost } :: st.rounds;
        (* the old version keeps serving while the speculative copy
           elapses — this is the whole point *)
        K.run_for st.t.kernel cost;
        Option.iter (fun f -> f r) on_precopy_round;
        if r >= 2 && delta <= threshold then Ok ()
        else if r >= max_rounds then
          if max_rounds = 1 || delta <= threshold then Ok () else Error Err.Precopy_diverged
        else round (r + 1)
      end
    in
    let res = round 1 in
    stage_end st ~args:[ ("rounds", string_of_int st.precopy_rounds) ] "precopy";
    match res with
    | Error reason -> Error (reason, "precopy")
    | Ok () ->
        (* relinking the program and prelinking shared libraries for the
           remapped immutable objects depends only on the new binary, all
           fixed before the window — prepay it too, with the old version
           still serving *)
        K.run_for st.t.kernel relink_ns;
        quiesce st
  end

(* One pair's state transfer: mutable tracing of the old process, the copy
   into its new-version pair, and the move of its post-startup descriptors.
   Returns the outcome and the pair's critical-path cost: tracing and
   copying each run sharded across the worker pool, so the pair pays the
   max over shards of each phase, not the sum. *)
let transfer_pair st ~key ~new_pid (oldp, oi) (newp, ni) =
  let t = st.t and pol = st.pol and mset = st.t.mset in
  let cost_since =
    (* the pre-copy epoch discounts in-window tracing only if this
       attempt's rounds actually paid for it *)
    if Hashtbl.mem st.sessions key then Aspace.epoch_find oi.P.i_aspace ~name:precopy_epoch
    else None
  in
  let analysis = Objgraph.analyze ?trace:t.trace ?cost_since ?fault:st.fault oi in
  let o =
    Transfer.run ~old_image:oi ~new_image:ni ~analysis ~dirty_only:pol.Policy.dirty_only
      ?remap:(if pol.Policy.transfer_remap then Some st.ledger else None)
      ?precopy:(Hashtbl.find_opt st.sessions key)
      ~workers:pol.Policy.transfer_workers ?trace:t.trace ?fault:st.fault ()
  in
  let pair_cost = o.Transfer.trace_critical_ns + o.Transfer.cost_ns in
  st.transfers <- (key, o) :: st.transfers;
  st.transfer_conflicts <- List.rev_append o.Transfer.conflicts st.transfer_conflicts;
  st.remapped_words <- st.remapped_words + o.Transfer.remapped_words;
  st.skipped_clean_words <- st.skipped_clean_words + o.Transfer.skipped_clean_words;
  Metrics.incr mset.m_transfer_pairs;
  Metrics.incr ~by:o.Transfer.transferred_objects mset.m_transferred_objects;
  Metrics.incr ~by:o.Transfer.transferred_words mset.m_transferred_words;
  Metrics.incr ~by:o.Transfer.remapped_words mset.m_remapped_words;
  Metrics.incr ~by:o.Transfer.skipped_clean_words mset.m_skipped_clean_words;
  Metrics.observe mset.m_pair_cost_h pair_cost;
  let pair = Format.asprintf "%a" Logdefs.pp_key key in
  (* pair transfers run in parallel — the charged time is the max across
     pairs, so a begin/end pair cannot represent one; a Complete event
     carries the pair's own duration instead *)
  Trace.complete t.trace ~pid:new_pid ~cat:"stage"
    ~args:
      [ ("pair", pair); ("words", string_of_int o.Transfer.transferred_words);
        ("objects", string_of_int o.Transfer.transferred_objects);
        ("workers", string_of_int o.Transfer.workers) ]
    ~dur_ns:pair_cost "transfer.pair";
  Metrics.set mset.m_workers_g o.Transfer.workers;
  if o.Transfer.workers > 1 then
    Array.iteri
      (fun s words ->
        Metrics.observe mset.m_shard_words_h words;
        Trace.complete t.trace ~pid:new_pid ~cat:"stage"
          ~args:[ ("pair", pair); ("shard", string_of_int s); ("words", string_of_int words) ]
          ~dur_ns:(o.Transfer.trace_shard_ns.(s) + o.Transfer.shard_cost_ns.(s))
          "transfer.shard")
      o.Transfer.shard_words;
  (* post-startup descriptors (open connections) move to the paired
     process at the same numbers *)
  List.iter
    (fun fd ->
      if fd < reserved_fd_base then ignore (K.transfer_fd t.kernel ~src:oldp ~fd ~dst:newp ~at:fd))
    (K.fds oldp);
  (o, pair_cost)

(* Volatile quiescent states: run the new version's reinit handlers. *)
let spawn_handlers st n =
  let k = st.t.kernel in
  (* fault injection: a handler that spins forever without blocking. Each
     iteration makes a syscall (so the thread dies with its process after
     rollback) and charges time (so the clock reaches the settling
     horizon) *)
  let injected =
    match st.fault with
    | Some f when Fault.consume f Fault.Reinit_hang ->
        [
          K.spawn_thread k n.mgr.root_image.P.i_proc ~name:"reinit:fault-hang" (fun th ->
              K.push_frame th "reinit:fault-hang";
              let rec spin () =
                ignore (K.syscall S.Getpid);
                K.charge k 50_000_000;
                spin ()
              in
              spin ());
        ]
    | _ -> []
  in
  injected
  @ List.concat_map
      (fun (im : P.image) ->
        List.map
          (fun (name, run) ->
            K.spawn_thread k im.P.i_proc ~name:("reinit:" ^ name) (fun th ->
                K.push_frame th ("reinit:" ^ name);
                run (reinit_ctx im th)))
          (P.reinit_handlers im.P.i_version))
      (images n.mgr)

(* Restore: transfer every process pair, in waves so reinit handlers can
   re-create volatile processes that then get their own transfer, then
   charge the parallel phase. *)
let state_transfer st n =
  let k = st.t.kernel and pol = st.pol in
  stage_begin st "state_transfer";
  let t2 = K.clock_ns k in
  let done_pairs = Hashtbl.create 8 in
  let max_pair_cost = ref 0 in
  let pairs_done = ref 0 in
  let wave () =
    let fresh =
      List.filter (fun (key, _) -> not (Hashtbl.mem done_pairs key)) (Replayer.pairs n.rep)
    in
    List.fold_left
      (fun worked (key, new_pid) ->
        Hashtbl.replace done_pairs key ();
        match (old_proc_of_key st n key, K.find_proc k new_pid) with
        | Some oldp, Some newp when K.alive oldp && K.alive newp -> (
            match (P.image_of_proc oldp, P.image_of_proc newp) with
            | Some oi, Some ni ->
                let o, cost = transfer_pair st ~key ~new_pid (oldp, oi) (newp, ni) in
                incr pairs_done;
                if cost > !max_pair_cost then begin
                  max_pair_cost := cost;
                  (* attribution follows the critical pair: its copy
                     critical path is the max shard, and whatever cost_ns
                     adds on top of that is the worker pool's spawn/join
                     overhead *)
                  let copy_crit =
                    if o.Transfer.workers > 1 then Array.fold_left max 0 o.Transfer.shard_cost_ns
                    else o.Transfer.cost_ns
                  in
                  st.attr <-
                    {
                      st.attr with
                      Flight.a_trace_ns = o.Transfer.trace_critical_ns;
                      a_copy_ns = copy_crit;
                      a_spawn_join_ns = o.Transfer.cost_ns - copy_crit;
                    }
                end;
                true
            | _ -> worked)
        | _ -> worked)
      false fresh
  in
  ignore (wave ());
  let handlers = spawn_handlers st n in
  (* wait until every handler has run to completion (or parked) AND the
     processes they re-created have quiesced — the bare next_quiesced
     predicate holds trivially before the handlers get scheduled *)
  let handlers_settled () =
    List.for_all (fun th -> (not (K.thread_alive th)) || K.blocked_in th <> None) handlers
  in
  let handlers_ok =
    K.run_until k
      ~max_ns:(K.clock_ns k + 2_000_000_000)
      (fun () -> handlers_settled () && next_quiesced n)
  in
  let waves = ref 0 in
  while wave () && !waves < 4 do
    incr waves;
    ignore (K.run_until k ~max_ns:(K.clock_ns k + 1_000_000_000) (fun () -> next_quiesced n))
  done;
  (* parallel multiprocess transfer: the slowest pair bounds the parallel
     phase; the coordinator adds a constant (relinking the program and
     prelinking shared libraries for the remapped immutable objects,
     Section 6 — already prepaid under pre-copy) plus a per-process channel
     setup cost *)
  let relink = if pol.Policy.precopy then 0 else relink_ns in
  let channel = 2_000_000 * !pairs_done in
  let charged = !max_pair_cost + relink + channel in
  (* Dedicated-core accounting keeps client machines live through the copy
     window — their connect/backoff timers fire inside it, which is what
     the latency bench measures. Single-core accounting (the default)
     freezes them, preserving historical downtime numbers. *)
  (if pol.Policy.concurrent_transfer then K.charge_concurrent else K.charge) k charged;
  st.state_transfer_ns <- K.clock_ns k - t2;
  (* attribution: whatever elapsed in this stage beyond the coordinator's
     own charge was other threads' time — reinit-handler settling before
     the charge, and under concurrent transfer the overshoot of the
     scheduler step that crossed the charge's deadline *)
  st.attr <-
    {
      st.attr with
      Flight.a_handlers_ns = st.state_transfer_ns - charged;
      a_relink_ns = relink;
      a_channel_ns = channel;
    };
  stage_end st ~args:[ ("pairs", string_of_int !pairs_done) ] "state_transfer";
  Metrics.observe st.t.mset.m_st_h st.state_transfer_ns;
  let fail reason = Error (reason, "state_transfer") in
  if deadline_exceeded st then fail Err.Update_deadline_exceeded
  else if not handlers_ok then fail Err.Reinit_not_quiesced
  else
    match Transfer.rollback_reason (List.rev st.transfer_conflicts) with
    | Some reason -> fail reason
    | None -> Ok ()

(* Commit: release the new version, terminate the old. *)
let commit st n =
  let k = st.t.kernel in
  st.teardown_from <- now st;
  stage_begin st "commit";
  respond_ctl st.t "OK";
  (* the old image dies: un-share the frames the remap shared with the new
     image so the survivor owns its memory *)
  Transfer.ledger_release st.ledger ~dying:`Old;
  List.iter
    (fun (im : P.image) -> if K.alive im.P.i_proc then K.kill_process k im.P.i_proc ~status:0)
    (images st.t);
  (* the update window is over: close the transfer's dirty epoch on the
     surviving images so the next update starts it afresh *)
  List.iter
    (fun (im : P.image) -> Aspace.epoch_reset im.P.i_aspace ~name:"mcr.transfer")
    (images n.mgr);
  end_update st n;
  List.iter (fun (im : P.image) -> Barrier.release im.P.i_barrier) (images n.mgr);
  (* the survivor serves: parked connections drain FIFO into its accept
     backlogs (the listener descriptors were shared across versions, so
     the queue is already its own) *)
  let parking = unpark st (images n.mgr) in
  Metrics.incr st.t.mset.m_commits;
  stage_end st "commit";
  finish st ~owner:n.mgr ~failure:None ~parking

let ( let* ) = Result.bind

(* One attempt: the stages in order, each either advancing the attempt or
   naming the rollback reason and the stage that hit it; every failure
   takes the same [abort] exit. Without pre-copy the stage order is the
   paper's checkpoint/restart/restore and the window is the whole update.
   With [pol.precopy] the old version keeps serving while the new version
   starts up and delta rounds speculatively stage the reachable graph;
   [precopy] then opens the window, so downtime is the final delta, not the
   bulk transfer. *)
let run_attempt t ~pol ~attempt ~prior ?fault ?on_precopy_round target =
  let t0 = K.clock_ns t.kernel in
  Option.iter (fun f -> Fault.set_trace f t.trace) fault;
  let st =
    {
      t;
      pol;
      fault;
      target;
      index = attempt;
      prior;
      t0;
      window_start = (if pol.Policy.precopy then None else Some t0);
      quiesce_ns = 0;
      control_migration_ns = 0;
      state_transfer_ns = 0;
      precopy_rounds = 0;
      precopy_bytes = 0;
      parking0 = K.parking_stats t.kernel;
      listeners_parked = false;
      image = None;
      attr = Flight.zero_attribution;
      rounds = [];
      remapped_words = 0;
      skipped_clean_words = 0;
      teardown_from = t0;
      sessions = Hashtbl.create 8;
      transfers = [];
      ledger = Transfer.ledger ();
      transfer_conflicts = [];
      next = None;
    }
  in
  Metrics.incr t.mset.m_updates;
  stage_begin st
    ~args:
      [ ("from", t.prog_version.P.version_tag); ("to", target.P.version_tag);
        ("prog", t.prog_version.P.prog) ]
    "update";
  let outcome =
    (* a manager whose processes are gone (already updated away from, or
       crashed) cannot be updated *)
    let* () = if images t = [] then Error (Err.Program_not_running, "init") else Ok () in
    let* () = if pol.Policy.precopy then Ok () else quiesce st in
    let* n = restart_replay st in
    let* () = precopy ?on_precopy_round st n in
    let* () = state_transfer st n in
    Ok n
  in
  match outcome with Ok n -> commit st n | Error failure -> abort st failure

(* Public entry point: resolve the effective policy (manager's stored
   policy, overridden for this call by [?policy]), then run [run_attempt]
   with bounded retry. The fault plan is shared across attempts — a fault
   consumed by attempt [n] is gone on attempt [n+1], so transient injected
   failures are exactly the ones retry recovers from. *)
let update t ?policy ?fault ?on_precopy_round new_version =
  let pol = match policy with Some p -> p | None -> !(t.policy) in
  let fault =
    match fault with
    | Some _ as s -> s
    | None -> Option.map Fault.of_seed pol.Policy.fault_seed
  in
  let k = t.kernel in
  let rec attempt n prior =
    let t', rep =
      run_attempt t ~pol ~attempt:n ~prior ?fault ?on_precopy_round new_version
    in
    if rep.success || n >= pol.Policy.retries then (t', rep)
    else begin
      Metrics.incr (Metrics.counter t.metrics "mcr_update_retries_total");
      (* linear backoff in virtual time before the next attempt *)
      ignore
        (K.run_until k
           ~max_ns:(K.clock_ns k + (pol.Policy.retry_backoff_ns * (n + 1)))
           (fun () -> false));
      (* retry lineage: the next attempt's record carries this one (its own
         lineage emptied, so the chain stays flat) *)
      attempt (n + 1) (prior @ [ { rep.flight with Flight.f_prior = [] } ])
    end
  in
  attempt 0 []
