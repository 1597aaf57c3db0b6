(* One run of one benchmark workload, in one fresh process.

   usage: mcrbench.exe WORKLOAD SEED [--work-dir DIR] [--trace FILE]

   Every workload is an open-loop Poisson stream (Loadgen) that brackets
   its MCR operations: one parked live update (ftp_fork_churn,
   web_bulk_precopy) or two checkpoint snapshots, each restored into a
   fresh kernel (web_checkpoint_restore). The program only times calls into
   the libraries' public functions from outside; it changes none of them.

   Two clocks are reported:
   - host: process CPU time (user+sys) and GC allocation counts of this
     OCaml process — what the simulator costs to run;
   - virtual: the simulated server's pause and client latency, which
     repeat exactly for a given seed.

   The last line of standard output is one JSON object: the end-to-end
   values, the deterministic per-layer counts, the names of failed checks
   and, with --trace, the host per-layer metrics of the traced spans
   (self CPU time and allocated words per layer). --trace also writes the
   spans as Chrome trace JSON to FILE and prints a self-time table.
   perfbench/run.py runs this program in fresh processes and aggregates. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Testbed = Mcr_workloads.Testbed
module Loadgen = Mcr_workloads.Loadgen
module Holders = Mcr_workloads.Holders
module Bench_result = Mcr_workloads.Bench_result
module Image = Mcr_image.Image
module Aspace = Mcr_vmem.Aspace
module Flight = Mcr_obs.Flight
module Transfer = Mcr_trace.Transfer

(* ------------------------------------------------------------------ *)
(* Host clock *)

let cpu_s () = Sys.time ()

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ------------------------------------------------------------------ *)
(* Span recorder: kept in memory, written once at exit. Off unless
   --trace is given, so the untraced run pays one branch per call. *)

module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root span. *)
    start_s : float;
    mutable stop_s : float;
    alloc0 : float;
    mutable alloc_words : float;
  }

  let on = ref false
  let finished : t list ref = ref []
  let open_ : t list ref = ref []
  let next_id = ref 0

  let run name f =
    if not !on then f ()
    else begin
      let parent = match !open_ with s :: _ -> s.id | [] -> -1 in
      let s =
        {
          id = !next_id;
          name;
          parent;
          start_s = cpu_s ();
          stop_s = 0.;
          alloc0 = alloc_words (Gc.quick_stat ());
          alloc_words = 0.;
        }
      in
      incr next_id;
      open_ := s :: !open_;
      let close () =
        s.stop_s <- cpu_s ();
        s.alloc_words <- alloc_words (Gc.quick_stat ()) -. s.alloc0;
        open_ := List.tl !open_;
        finished := s :: !finished
      in
      Fun.protect ~finally:close f
    end

  let dur s = s.stop_s -. s.start_s

  (* A span's self time is its duration minus what its direct children
     cover; children of one span run one after another, so their
     durations add. *)
  let self_times spans =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      spans;
    List.map
      (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
      spans

  let chrome_json spans ~t0 =
    let ev s =
      Printf.sprintf
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.0f,\"dur\":%.0f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"alloc_words\":%.0f}}"
        s.name
        (match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name)
        ((s.start_s -. t0) *. 1e6)
        (dur s *. 1e6) s.id s.parent s.alloc_words
    in
    "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map ev spans) ^ "\n]}\n"
end

let span = Span.run

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = Ftp_fork_churn | Web_bulk_precopy | Web_checkpoint_restore

let workloads =
  [
    ("ftp_fork_churn", Ftp_fork_churn);
    ("web_bulk_precopy", Web_bulk_precopy);
    ("web_checkpoint_restore", Web_checkpoint_restore);
  ]

(* Sizes are fixed per workload; only the arrival schedule depends on the
   seed. Every stream has more than 1,000 requests, so at least ten
   samples lie beyond its p99. *)
let requests = 1_100

(* Virtual serving time before the first MCR operation: the accept path
   reaches steady state, and most of the stream still lands inside or
   after the window. *)
let warm_ns = 5_000_000

(* nginx with one worker and a large heap: the stream keeps hundreds of
   connections open at once in one address space. *)
let web_heap_words = 8 * 1024 * 1024
let web_config buffer_words =
  Printf.sprintf "worker_processes 1;\nconn_buffer_words %d;" buffer_words

let web_versions ?(heap_words = web_heap_words) () =
  ( Mcr_servers.Nginx_sim.base ~heap_words (),
    Mcr_servers.Nginx_sim.final ~heap_words () )

(* What a run produced, beyond the stream itself. *)
type outcome = {
  kernel : K.t;  (** The serving kernel. *)
  final : Manager.t;  (** The manager serving at the end of the run. *)
  lg : Loadgen.t;
  pause_ns : int;
  checks : (string * bool) list list;  (** One list of named checks per operation. *)
  report : Manager.report option;  (** The update's report, if any. *)
  image : Image.t option;  (** The last snapshot, if any. *)
  image_bytes : int;
  image_words : int;
}

let stream kernel ~server ~seed ~rate =
  span "workloads.loadgen_start" (fun () ->
      Loadgen.start kernel ~server ~seed ~rate ~requests ())

(* The closed-loop paper benchmark on an instance after an MCR operation:
   it must answer with zero errors. *)
let post_benchmark kernel server =
  let r =
    span "workloads.post_benchmark" (fun () ->
        Testbed.benchmark kernel server ~scale:1_000 ())
  in
  ("post_mcr_benchmark_no_errors", r.Bench_result.errors = 0 && r.Bench_result.requests > 0)

let update_checks kernel (report : Manager.report) =
  let ps = K.parking_stats kernel in
  [
    ("update_commits", report.Manager.success);
    ( "parked_eq_resumed_plus_aborted",
      report.Manager.parked_requests
      = report.Manager.resumed_requests + report.Manager.aborted_requests
      && ps.K.parked = ps.K.resumed + ps.K.aborted );
  ]

(* A parked live update in the middle of a stream. *)
let run_update ~server ~version ~target ?config ?(holders = 0) ~policy ~rate ~seed ~setup_done
    () =
  let kernel = K.create () in
  let m = span "workloads.launch" (fun () -> Testbed.launch ~version ?config kernel server) in
  (* vsftpd's default 1 MiB big.bin would make byte charges swamp the
     window; the stream only needs a small file. *)
  if server = Testbed.Vsftpd then
    K.fs_write kernel ~path:(Mcr_servers.Vsftpd_sim.ftp_root ^ "/big.bin") (String.make 1024 'f');
  let held =
    if holders > 0 then
      Some (span "workloads.holders" (fun () -> Testbed.open_holders kernel server ~n:holders))
    else None
  in
  let lg = stream kernel ~server ~seed ~rate in
  setup_done ();
  span "workloads.drive" (fun () -> K.run_for kernel warm_ns);
  let m2, report = span "core.update" (fun () -> Manager.update m ~policy target) in
  span "workloads.drive" (fun () -> Loadgen.drive lg);
  Option.iter Holders.close_all held;
  {
    kernel;
    final = m2;
    lg;
    pause_ns = report.Manager.downtime_ns;
    checks = [ update_checks kernel report @ [ post_benchmark kernel server ] ];
    report = Some report;
    image = None;
    image_bytes = 0;
    image_words = 0;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Snapshot the serving instance to disk, read it back, restore it into a
   fresh kernel (the recovering standby) and verify the copy. *)
let checkpoint_cycle kernel m ~server ~version ~config ~path =
  let t0 = K.clock_ns kernel in
  match span "image.save" (fun () -> Manager.save_image m ~path) with
  | Error e -> failwith ("save_image: " ^ e)
  | Ok img -> (
      let pause_ns = K.clock_ns kernel - t0 in
      match span "image.read" (fun () -> Image.read ~path) with
      | Error e -> failwith ("Image.read: " ^ Image.error_to_string e)
      | Ok on_disk ->
          let k2 = K.create () in
          let m2 =
            span "workloads.launch" (fun () -> Testbed.launch ~version ~config k2 server)
          in
          let live_members = List.length (Manager.images m2) in
          let rep = span "image.restore" (fun () -> Manager.restore_image m2 on_disk) in
          let file_bytes, checks =
            span "bench.verify" (fun () ->
                let file_bytes = read_file path in
                Sys.remove path;
                let fp =
                  Image.aspace_fingerprint ~prog:(Image.prog on_disk)
                    (K.aspace (Manager.root_proc m2))
                in
                let paired_ok =
                  match rep with
                  | Error _ -> false
                  | Ok r ->
                      r.Image.paired_procs = live_members
                      && r.Image.paired_procs + r.Image.skipped_saved_procs
                         = Image.proc_count img
                in
                ( file_bytes,
                  [
                    ("image_reencodes_identically", Image.encode on_disk = file_bytes);
                    ( "restored_fingerprint_matches",
                      Result.is_ok rep
                      && fp = Image.fingerprint on_disk
                      && Image.fingerprint on_disk = Image.fingerprint img );
                    ("paired_procs_match_saved_roots", paired_ok);
                  ] ))
          in
          (img, pause_ns, String.length file_bytes, checks @ [ post_benchmark k2 server ]))

(* Two snapshots, 5 ms of serving apart, inside an 18 ms burst of 60k
   requests/s: nginx is past its capacity, so every request queues behind
   the backlog and the pauses, and both percentiles are queueing, not the
   fixed per-request service time. *)
let snapshots = 2
let snapshot_gap_ns = 5_000_000

(* Images carry every heap word, so this heap is kept to 1M words: two
   snapshots of about 2M words each fit one run, and the codec and the
   word walks outweigh the stream. *)
let snapshot_heap_words = 1024 * 1024

let run_checkpoint ~rate ~seed ~work_dir ~setup_done () =
  let server = Testbed.Nginx in
  let version, _ = web_versions ~heap_words:snapshot_heap_words () in
  let config = web_config 0 in
  let kernel = K.create () in
  let m = span "workloads.launch" (fun () -> Testbed.launch ~version ~config kernel server) in
  Manager.set_policy m (Policy.with_concurrent_transfer true (Manager.policy m));
  let lg = stream kernel ~server ~seed ~rate in
  setup_done ();
  let rec cycles i acc =
    if i = snapshots then acc
    else begin
      span "workloads.drive" (fun () -> K.run_for kernel snapshot_gap_ns);
      let path = Filename.concat work_dir (Printf.sprintf "nginx-%d-%d.mcrimg" seed i) in
      let img, pause, bytes, checks =
        checkpoint_cycle kernel m ~server ~version ~config ~path
      in
      let _, p, b, w, c = acc in
      cycles (i + 1) (Some img, p + pause, b + bytes, w + Image.total_words img, c @ [ checks ])
    end
  in
  let img, pause_ns, image_bytes, image_words, checks = cycles 0 (None, 0, 0, 0, []) in
  span "workloads.drive" (fun () -> Loadgen.drive lg);
  {
    kernel;
    final = m;
    lg;
    pause_ns;
    checks;
    report = None;
    image = img;
    image_bytes;
    image_words;
  }

(* Below nginx's capacity, so p50 is the serving path and p99 the update
   window's tail; the 73 ms stream spans the ~50 ms of pre-copy rounds and
   the window that follows them. *)
let bulk_rate = 15_000

let run_workload wl ~seed ~work_dir ~setup_done =
  match wl with
  | Ftp_fork_churn ->
      let policy =
        Policy.default |> Policy.with_concurrent_transfer true
        |> Policy.with_request_parking true
      in
      run_update ~server:Testbed.Vsftpd
        ~version:(Mcr_servers.Vsftpd_sim.base ())
        ~target:(Mcr_servers.Vsftpd_sim.final ()) ~policy ~rate:30_000 ~seed ~setup_done ()
  | Web_bulk_precopy ->
      let version, target = web_versions () in
      let policy =
        Policy.default
        |> Policy.with_precopy ~max_rounds:6 ~threshold_words:100_000 true
        |> Policy.with_transfer_workers 4
        |> Policy.with_concurrent_transfer true
        |> Policy.with_request_parking true
      in
      run_update ~server:Testbed.Nginx ~version ~target ~config:(web_config 65_536)
        ~holders:40 ~policy ~rate:bulk_rate ~seed ~setup_done ()
  | Web_checkpoint_restore -> run_checkpoint ~rate:60_000 ~seed ~work_dir ~setup_done ()

(* ------------------------------------------------------------------ *)
(* Client percentiles: one exact-rank (nearest-rank) estimator over the
   per-request records, independent of the Stats histograms. *)

let nearest_rank sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let k = max 1 (min n k) in
  (sorted.(k - 1), n - k)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let ms ns = float_of_int ns /. 1e6

(* The update's downtime waterfall. Its segments should sum exactly to
   pause_ms; flight.unattributed_ms is what they leave unexplained. *)
let flight_segments (o : outcome) =
  let seg f =
    match o.report with Some r -> f r.Manager.flight.Flight.f_attribution | None -> 0
  in
  Flight.
    [
      ("flight.quiesce_ms", seg (fun a -> a.a_quiesce_ns));
      ("flight.restart_ms", seg (fun a -> a.a_restart_ns));
      ("flight.trace_ms", seg (fun a -> a.a_trace_ns));
      ("flight.copy_ms", seg (fun a -> a.a_copy_ns));
      ("flight.spawn_join_ms", seg (fun a -> a.a_spawn_join_ns));
      ("flight.relink_ms", seg (fun a -> a.a_relink_ns));
      ("flight.channel_ms", seg (fun a -> a.a_channel_ns));
      ("flight.handlers_ms", seg (fun a -> a.a_handlers_ns));
      ("flight.teardown_ms", seg (fun a -> a.a_teardown_ns));
    ]

let counts_of (o : outcome) =
  let fi = float_of_int in
  let segments = flight_segments o in
  let unattributed =
    match o.report with
    | None -> 0
    | Some r ->
        r.Manager.downtime_ns - List.fold_left (fun acc (_, ns) -> acc + ns) 0 segments
  in
  let flight =
    List.map (fun (k, ns) -> (k, ms ns)) segments
    @ [ ("flight.unattributed_ms", ms unattributed) ]
  in
  let sum f =
    match o.report with
    | None -> 0.
    | Some r -> fi (List.fold_left (fun acc (_, oc) -> acc + f oc) 0 r.Manager.transfers)
  in
  let rep f = match o.report with None -> 0. | Some r -> fi (f r) in
  let procs = K.procs o.kernel in
  let ps = K.parking_stats o.kernel in
  flight
  @ [
      ("transfer.live_words", sum (fun oc -> oc.Transfer.live_words));
      ("transfer.copied_words", sum (fun oc -> oc.Transfer.transferred_words));
      ("transfer.remapped_words", sum (fun oc -> oc.Transfer.remapped_words));
      ("transfer.hashed_words", sum (fun oc -> oc.Transfer.hashed_words));
      ("transfer.skipped_clean_words", sum (fun oc -> oc.Transfer.skipped_clean_words));
      ("precopy.rounds", rep (fun r -> r.Manager.precopy_rounds));
      ("precopy.bytes", rep (fun r -> r.Manager.precopy_bytes));
      ("replay.replayed_calls", rep (fun r -> r.Manager.replayed_calls));
      ("replay.live_calls", rep (fun r -> r.Manager.live_calls));
      ("simos.procs_created", fi (List.length procs));
      ("simos.procs_alive", fi (List.length (List.filter K.alive procs)));
      ("simos.parked", fi ps.K.parked);
      ("simos.resumed", fi ps.K.resumed);
      ("simos.aborted", fi ps.K.aborted);
      ("workloads.peak_in_flight", fi (Loadgen.peak_in_flight o.lg));
      ("workloads.refused_retries", fi (Loadgen.refused_retries o.lg));
      ("image.bytes", fi o.image_bytes);
      ("image.words", fi o.image_words);
    ]

(* Probe calls: traced run only, after the workload, on its final state. *)
let probes (o : outcome) =
  span "bench.probe" (fun () ->
      let root = K.aspace (Manager.root_proc o.final) in
      let prog = (Manager.version o.final).Mcr_program.Progdef.prog in
      span "vmem.clone" (fun () -> ignore (Aspace.clone root));
      span "vmem.fingerprint" (fun () -> ignore (Image.aspace_fingerprint ~prog root));
      span "trace.analyze" (fun () -> ignore (Manager.trace_statistics o.final));
      span "quiesce.quiesce" (fun () -> ignore (Manager.quiesce_only o.final));
      match o.image with
      | None -> ()
      | Some img ->
          let bytes = span "image.encode" (fun () -> Image.encode img) in
          ignore (span "image.decode" (fun () -> Image.decode bytes)))

(* Spans whose self time and allocation are per-layer metrics. *)
let layer_spans =
  [
    ("workloads.launch", true);
    ("workloads.holders", false);
    ("workloads.loadgen_start", false);
    ("workloads.drive", true);
    ("core.update", true);
    ("image.save", true);
    ("image.read", true);
    ("image.restore", true);
    ("vmem.clone", true);
    ("vmem.fingerprint", false);
    ("trace.analyze", true);
    ("quiesce.quiesce", false);
    ("image.encode", false);
    ("image.decode", false);
  ]

let layer_metrics spans =
  let selfs = Span.self_times spans in
  List.concat_map
    (fun (name, with_alloc) ->
      let mine = List.filter (fun ((s : Span.t), _) -> s.Span.name = name) selfs in
      let self = List.fold_left (fun acc (_, st) -> acc +. st) 0. mine in
      let alloc = List.fold_left (fun acc ((s : Span.t), _) -> acc +. s.Span.alloc_words) 0. mine in
      (name ^ "_s", self) :: (if with_alloc then [ (name ^ "_mwords", alloc /. 1e6) ] else []))
    layer_spans

let print_self_table spans =
  let selfs = Span.self_times spans in
  let names = List.sort_uniq compare (List.map (fun (s : Span.t) -> s.Span.name) spans) in
  Printf.printf "%-28s %5s %10s %10s %12s\n" "span" "calls" "total_s" "self_s" "alloc_Mw";
  List.iter
    (fun name ->
      let mine = List.filter (fun ((s : Span.t), _) -> s.Span.name = name) selfs in
      let f g = List.fold_left (fun acc x -> acc +. g x) 0. mine in
      Printf.printf "%-28s %5d %10.4f %10.4f %12.3f\n" name (List.length mine)
        (f (fun (s, _) -> Span.dur s))
        (f snd)
        (f (fun ((s : Span.t), _) -> s.Span.alloc_words /. 1e6)))
    names

let main wl ~seed ~work_dir ~trace_file =
  Span.on := trace_file <> None;
  let gc0 = Gc.quick_stat () in
  let t0 = cpu_s () in
  let t_setup = ref t0 in
  let o =
    span "bench.run" (fun () ->
        run_workload wl ~seed ~work_dir ~setup_done:(fun () -> t_setup := cpu_s ()))
  in
  let lg = o.lg in
  let records = Loadgen.records lg in
  let lat =
    Array.of_list
      (List.map (fun r -> r.Loadgen.rq_complete_ns - r.Loadgen.rq_scheduled_ns) records)
  in
  Array.sort compare lat;
  let n = Array.length lat in
  let p50, _ = nearest_rank lat 50. in
  let p99, beyond = nearest_rank lat 99. in
  let max_ns = if n = 0 then 0 else lat.(n - 1) in
  let ok_requests = List.length (List.filter (fun r -> r.Loadgen.rq_ok) records) in
  let stream_checks =
    [
      ("issued_eq_scheduled", Loadgen.issued lg = requests && Loadgen.total lg = requests);
      ( "completed_plus_errored_eq_issued",
        Loadgen.completed lg + Loadgen.errored lg = Loadgen.issued lg );
      ("percentiles_monotone", n > 0 && p50 <= p99 && p99 <= max_ns);
      ("ten_samples_beyond_p99", beyond >= 10);
    ]
  in
  let t_end = cpu_s () in
  let gc1 = Gc.quick_stat () in
  (* An operation counts as ok when its own checks and every stream-level
     check pass. *)
  let passes = List.for_all snd in
  let ops_ok =
    if passes stream_checks then List.length (List.filter passes o.checks) else 0
  in
  let failed_checks =
    List.filter_map
      (fun (c, ok) -> if ok then None else Some c)
      (stream_checks @ List.concat o.checks)
  in
  let attempted = requests + List.length o.checks in
  let ok = ok_requests + ops_ok in
  let e2e =
    [
      ("setup_s", !t_setup -. t0);
      ("host_cpu_s", t_end -. !t_setup);
      ("host_alloc_mwords", (alloc_words gc1 -. alloc_words gc0) /. 1e6);
      ("host_peak_heap_mb", float_of_int gc1.Gc.top_heap_words *. 8. /. 1048576.);
      ("pause_ms", ms o.pause_ns);
      ("client_p50_ms", ms p50);
      ("client_p99_ms", ms p99);
      ("ok_ratio", float_of_int ok /. float_of_int attempted);
    ]
  in
  let counts = counts_of o in
  let layers =
    if not !Span.on then []
    else begin
      probes o;
      let gc =
        [
          ( "gc.minor_collections",
            float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ]
      in
      let spans = List.rev !Span.finished in
      print_self_table spans;
      Option.iter
        (fun path ->
          let oc = open_out_bin path in
          output_string oc (Span.chrome_json spans ~t0);
          close_out oc)
        trace_file;
      layer_metrics spans @ gc
    end
  in
  List.iter (fun c -> Printf.printf "check failed: %s\n" c) failed_checks;
  let fields l = json_obj (List.map (fun (k, v) -> (k, json_num v)) l) in
  print_endline
    (json_obj
       [
         ("e2e", fields e2e);
         ("counts", fields counts);
         ("layers", fields layers);
         ("requests", string_of_int n);
         ("beyond_p99", string_of_int beyond);
         ("max_ms", json_num (ms max_ns));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int (attempted - ok));
         ( "failed_checks",
           "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") failed_checks) ^ "]" );
       ])

(* ------------------------------------------------------------------ *)
(* Calibration: fixed host work that uses none of the libraries, in the
   simulator's mix — page-sized int arrays allocated, written, read and
   dropped (vmem frames), a hash table and short-lived small blocks
   (kernel and trace bookkeeping). run.py times it in its own process next
   to every workload process, to measure how fast the machine is running
   at that moment. *)

let calibrate () =
  let t0 = cpu_s () in
  let acc = ref 0 in
  for round = 1 to 3 do
    let pages = Array.init 8_192 (fun i -> Array.make 512 (i + round)) in
    Array.iter (fun p -> for j = 0 to 511 do p.(j) <- (p.(j) * 31) + j done) pages;
    let h = Hashtbl.create 1024 in
    Array.iteri (fun i p -> Hashtbl.replace h (i * 7919) (p.(i land 511), [ i; p.(0) ])) pages;
    Hashtbl.iter (fun k (v, l) -> acc := !acc + k + v + List.length l) h;
    let l = List.init 200_000 (fun i -> (i, string_of_int i)) in
    acc := !acc + List.fold_left (fun a (i, s) -> a + i + String.length s) 0 (List.rev l)
  done;
  Printf.printf "{\"calibrate_s\": %s, \"digest\": %d}\n" (json_num (cpu_s () -. t0)) !acc

let () =
  let usage () =
    prerr_endline
      ("usage: mcrbench.exe WORKLOAD SEED [--work-dir DIR] [--trace FILE]\n\
       \       mcrbench.exe calibrate\nworkloads: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  in
  match Array.to_list Sys.argv with
  | [ _; "calibrate" ] -> calibrate ()
  | _ :: wl :: seed :: rest -> (
      let wl = match List.assoc_opt wl workloads with Some w -> w | None -> usage () in
      let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
      let rec opts work trace = function
        | [] -> (work, trace)
        | "--work-dir" :: d :: r -> opts d trace r
        | "--trace" :: f :: r -> opts work (Some f) r
        | _ -> usage ()
      in
      let work_dir, trace_file = opts Filename.current_dir_name None rest in
      main wl ~seed ~work_dir ~trace_file)
  | _ -> usage ()
