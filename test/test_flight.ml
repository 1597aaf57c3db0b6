(* The update flight recorder, end to end: Frame codec unit tests, the
   attribution-reconciliation property (components sum to downtime exactly
   across servers x worker counts x pre-copy, committed and rolled-back
   attempts alike, plus seeded-fault qcheck sweeps), JSON round-trips, the
   golden EXPLAIN payload over the v1 wire protocol, SLO budget
   evaluation, retry lineage, and the post-mortem narrative naming the
   conflicting object and failed stage. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Frame = Mcr_core.Frame
module Policy = Mcr_core.Policy
module Fault = Mcr_fault.Fault
module Flight = Mcr_obs.Flight
module Postmortem = Mcr_obs.Postmortem
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Trace = Mcr_obs.Trace

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let test_frame_requests () =
  (match Frame.parse_request "HELLO 1 UPDATE" with
  | `Hello (1, Some "UPDATE") -> ()
  | _ -> Alcotest.fail "HELLO 1 UPDATE");
  (match Frame.parse_request "HELLO 3" with
  | `Hello (3, None) -> ()
  | _ -> Alcotest.fail "bare HELLO is a handshake");
  (match Frame.parse_request "HELLO 1 EXPLAIN 2" with
  | `Hello (1, Some "EXPLAIN 2") -> ()
  | _ -> Alcotest.fail "command keeps its arguments");
  (match Frame.parse_request "HELLO x UPDATE" with
  | `Malformed_hello -> ()
  | _ -> Alcotest.fail "non-integer version is malformed");
  (match Frame.parse_request "UPDATE" with
  | `Legacy "UPDATE" -> ()
  | _ -> Alcotest.fail "raw command takes the legacy path");
  Alcotest.(check string) "hello_frame with command" "HELLO 1 STATS"
    (Frame.hello_frame ~version:1 ~command:"STATS");
  Alcotest.(check string) "hello_frame bare" "HELLO 1"
    (Frame.hello_frame ~version:1 ~command:"")

let test_frame_replies () =
  let parse = Frame.parse_reply ~version:1 in
  (match parse "OK" with
  | Ok "" -> ()
  | _ -> Alcotest.fail "bare OK");
  (match parse (Frame.ok_inline "42") with
  | Ok "42" -> ()
  | _ -> Alcotest.fail "OK inline");
  (match parse (Frame.ok_payload "line1\nline2") with
  | Ok "line1\nline2" -> ()
  | _ -> Alcotest.fail "OK payload");
  (match parse "ERR version 7" with
  | Error (Frame.Version_mismatch { client = 1; server = 7 }) -> ()
  | _ -> Alcotest.fail "version mismatch");
  (match parse (Frame.err "no flight records") with
  | Error (Frame.Refused "no flight records") -> ()
  | _ -> Alcotest.fail "refusal");
  (match parse "gibberish" with
  | Error (Frame.Transport _) -> ()
  | _ -> Alcotest.fail "unexpected frame is a transport error");
  Alcotest.(check string) "legacy UPDATE downgrade" "FAIL busy"
    (Frame.legacy_update_frame (Frame.err "busy"));
  Alcotest.(check string) "legacy OK passthrough" "OK"
    (Frame.legacy_update_frame Frame.ok)

(* ------------------------------------------------------------------ *)
(* Attribution reconciliation: the property the recorder exists for *)

let policy ~workers ~precopy =
  Policy.default
  |> Policy.with_transfer_workers workers
  |> Policy.with_precopy precopy

let flight_of ?fault ~workers ~precopy server =
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  Manager.set_policy m (policy ~workers ~precopy);
  ignore (Testbed.benchmark kernel server ~scale:1000 ());
  let _, report = Manager.update m ?fault (Testbed.final_version server) in
  report

let check_reconciled label (f : Flight.record) =
  if Flight.unattributed_ns f <> 0 then
    Alcotest.failf "%s: %d ns unattributed (downtime %d, sum %d)" label
      (Flight.unattributed_ns f) f.Flight.f_downtime_ns
      (Flight.attribution_sum f.Flight.f_attribution)

let test_attribution_matrix () =
  List.iter
    (fun server ->
      List.iter
        (fun workers ->
          List.iter
            (fun precopy ->
              let label =
                Printf.sprintf "%s W=%d precopy=%b" (Testbed.name server) workers precopy
              in
              let report = flight_of ~workers ~precopy server in
              Alcotest.(check bool) (label ^ " committed") true report.Manager.success;
              let f = report.Manager.flight in
              check_reconciled label f;
              Alcotest.(check bool) (label ^ " success flag") true f.Flight.f_success;
              Alcotest.(check bool) (label ^ " no explanation on success") true
                (f.Flight.f_explanation = None);
              Alcotest.(check int) (label ^ " workers recorded") workers f.Flight.f_workers;
              Alcotest.(check bool) (label ^ " precopy recorded") precopy f.Flight.f_precopy;
              if precopy then
                Alcotest.(check bool) (label ^ " precopy rounds recorded") true
                  (List.length f.Flight.f_rounds > 0))
            [ false; true ])
        [ 1; 4 ])
    [ Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd ]

let test_attribution_rollback () =
  List.iter
    (fun server ->
      let label = Testbed.name server ^ " transfer-conflict" in
      let report =
        flight_of ~workers:1 ~precopy:false
          ~fault:(Fault.script [ Fault.Transfer_conflict ])
          server
      in
      Alcotest.(check bool) (label ^ " rolled back") false report.Manager.success;
      check_reconciled label report.Manager.flight)
    [ Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd ]

let servers = [| Testbed.Nginx; Testbed.Httpd; Testbed.Vsftpd; Testbed.Sshd |]

let attribution_seeded_prop =
  QCheck.Test.make ~name:"attribution sums to downtime under seeded faults" ~count:40
    QCheck.(
      quad (int_range 0 (Array.length servers - 1)) (int_range 0 1) bool
        (int_range 0 1_000_000))
    (fun (si, wi, precopy, seed) ->
      let server = servers.(si) in
      let workers = [| 1; 4 |].(wi) in
      let report =
        flight_of ~workers ~precopy ~fault:(Fault.of_seed seed) server
      in
      let f = report.Manager.flight in
      if Flight.unattributed_ns f <> 0 then
        QCheck.Test.fail_reportf "%s W=%d precopy=%b seed=%d: %d ns unattributed"
          (Testbed.name server) workers precopy seed (Flight.unattributed_ns f);
      (* rollbacks must carry an explanation, commits must not *)
      if report.Manager.success then f.Flight.f_explanation = None
      else f.Flight.f_explanation <> None)

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let test_json_roundtrip () =
  let commit = (flight_of ~workers:4 ~precopy:true Testbed.Nginx).Manager.flight in
  let rollback =
    (flight_of ~workers:1 ~precopy:false
       ~fault:(Fault.script [ Fault.Transfer_conflict ])
       Testbed.Httpd)
      .Manager.flight
  in
  List.iter
    (fun (label, f) ->
      match Flight.of_json (Flight.to_json f) with
      | Ok f' -> Alcotest.(check bool) (label ^ " round-trips") true (f = f')
      | Error e -> Alcotest.failf "%s: of_json failed: %s" label e)
    [ ("commit", commit); ("rollback", rollback) ];
  match Flight.of_json_list (Flight.list_to_json [ commit; rollback ]) with
  | Ok [ a; b ] ->
      Alcotest.(check bool) "list round-trips" true (a = commit && b = rollback)
  | Ok _ -> Alcotest.fail "list length changed"
  | Error e -> Alcotest.failf "of_json_list failed: %s" e

(* ------------------------------------------------------------------ *)
(* EXPLAIN over the wire, pinned against a golden payload *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let explain_scenario () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:1000 ());
  let m2, report =
    Manager.update m
      ~fault:(Fault.script [ Fault.Transfer_conflict ])
      (Testbed.final_version Testbed.Httpd)
  in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  (kernel, m2)

let request_explain kernel m2 ~nth =
  let result = ref None in
  Ctl.request_explain kernel ~path:(Manager.ctl_path m2) ~nth
    ~on_result:(fun r -> result := Some r)
    ();
  drive kernel (fun () -> !result <> None);
  match !result with
  | None -> Alcotest.fail "EXPLAIN got no reply"
  | Some r -> r

let test_explain_golden () =
  let kernel, m2 = explain_scenario () in
  let json =
    match request_explain kernel m2 ~nth:None with
    | Ok json -> json
    | Error e -> Alcotest.failf "EXPLAIN LAST refused: %a" Ctl.pp_error e
  in
  Alcotest.(check string) "EXPLAIN LAST payload matches golden"
    (String.trim (read_file "golden/flight_explain.golden"))
    (String.trim json);
  (* the payload parses back into the record the manager holds *)
  match Flight.of_json json with
  | Error e -> Alcotest.failf "EXPLAIN payload unparseable: %s" e
  | Ok f -> (
      Alcotest.(check bool) "record marks failure" false f.Flight.f_success;
      check_reconciled "EXPLAIN payload" f;
      match f.Flight.f_explanation with
      | None -> Alcotest.fail "rollback record lacks explanation"
      | Some e ->
          Alcotest.(check string) "failed stage" "state_transfer" e.Flight.e_stage;
          Alcotest.(check (option string)) "fired fault point"
            (Some "transfer_conflict") e.Flight.e_fault;
          (match e.Flight.e_conflicts with
          | [ c ] -> Alcotest.(check string) "conflict kind" "injected" c.Flight.c_kind
          | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)))

(* ------------------------------------------------------------------ *)
(* Exit paths, pinned: one update ending at each exit of the pipeline
   (init, quiesce, restart_replay, precopy, state_transfer, commit) under
   the default charging policy. The golden holds every scalar report
   field, the metrics snapshot, the stage spans and the flight record, so
   a change to what any exit reports shows up as a diff. On a mismatch the
   actual lines are written to [exit_paths.actual] in the test's working
   directory. *)

let exit_path_lines () =
  let scenario name ?(policy = Policy.default) ?fault ?(mutate = false) ?(stale = false) () =
    let kernel = K.create () in
    let trace = Trace.create ~clock:(fun () -> K.clock_ns kernel) () in
    let m = Testbed.launch ~trace kernel Testbed.Httpd in
    ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:1000 ());
    let final = Testbed.final_version Testbed.Httpd in
    (* a stale manager (its version already updated away) exits at init *)
    if stale then ignore (Manager.update m final);
    Trace.clear trace;
    (* writes between pre-copy rounds keep the delta from converging *)
    let on_precopy_round =
      if mutate then
        Some (fun _ -> ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:1000 ()))
      else None
    in
    let _, r = Manager.update m ~policy ?fault ?on_precopy_round final in
    let scalars =
      Printf.sprintf
        "success=%b quiesce_ns=%d control_migration_ns=%d state_transfer_ns=%d total_ns=%d \
         downtime_ns=%d precopy_rounds=%d precopy_bytes=%d replayed_calls=%d live_calls=%d \
         replay_conflicts=%d transfer_conflicts=%d transfers=%d failure=%s parked=%d \
         resumed=%d aborted=%d"
        r.Manager.success r.Manager.quiesce_ns r.Manager.control_migration_ns
        r.Manager.state_transfer_ns r.Manager.total_ns r.Manager.downtime_ns
        r.Manager.precopy_rounds r.Manager.precopy_bytes r.Manager.replayed_calls
        r.Manager.live_calls
        (List.length r.Manager.replay_conflicts)
        (List.length r.Manager.transfer_conflicts)
        (List.length r.Manager.transfers)
        (match r.Manager.failure with Some e -> Mcr_error.to_string e | None -> "-")
        r.Manager.parked_requests r.Manager.resumed_requests r.Manager.aborted_requests
    in
    let spans =
      List.filter_map
        (fun (e : Trace.event) ->
          if e.Trace.cat = "stage" then Some (Trace.phase_name e.Trace.phase ^ " " ^ e.Trace.name)
          else None)
        (Trace.events trace)
    in
    [ "== " ^ name; scalars; "spans: " ^ String.concat ", " spans;
      "flight: " ^ Flight.to_json r.Manager.flight ]
    @ String.split_on_char '\n' (String.trim (Metrics.render r.Manager.metrics))
  in
  List.concat
    [
      scenario "init" ~stale:true ();
      scenario "quiesce" ~fault:(Fault.script [ Fault.Quiesce_refusal ]) ();
      scenario "restart_replay" ~fault:(Fault.script [ Fault.Startup_crash ]) ();
      scenario "precopy"
        ~policy:(Policy.with_precopy ~max_rounds:2 ~threshold_words:0 true Policy.default)
        ~mutate:true ();
      scenario "state_transfer" ~fault:(Fault.script [ Fault.Transfer_conflict ]) ();
      scenario "commit" ();
    ]

let test_exit_paths_golden () =
  let actual = exit_path_lines () in
  let expected =
    String.split_on_char '\n' (String.trim (read_file "golden/exit_paths.golden"))
  in
  if actual <> expected then begin
    let oc = open_out_bin "exit_paths.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string)) "exit paths match golden" expected actual

let test_explain_wire_errors () =
  let kernel, m2 = explain_scenario () in
  (match request_explain kernel m2 ~nth:(Some 99) with
  | Error (Ctl.Refused reason) ->
      Alcotest.(check string) "out-of-range refusal" "no flight record 99" reason
  | Ok _ -> Alcotest.fail "EXPLAIN 99 should refuse"
  | Error e -> Alcotest.failf "unexpected error: %a" Ctl.pp_error e);
  (* EXPLAIN 1 = LAST *)
  let last =
    match request_explain kernel m2 ~nth:None with Ok j -> j | Error _ -> assert false
  in
  match request_explain kernel m2 ~nth:(Some 1) with
  | Ok j -> Alcotest.(check string) "EXPLAIN 1 = EXPLAIN LAST" last j
  | Error e -> Alcotest.failf "EXPLAIN 1 refused: %a" Ctl.pp_error e

let test_explain_empty () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  match request_explain kernel m ~nth:None with
  | Error (Ctl.Refused "no flight records") -> ()
  | Ok _ -> Alcotest.fail "EXPLAIN on a fresh manager should refuse"
  | Error e -> Alcotest.failf "unexpected error: %a" Ctl.pp_error e

(* ------------------------------------------------------------------ *)
(* SLO budgets *)

let test_slo_violation () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  Manager.set_policy m
    (Policy.with_slo ~downtime_ns:(Some 1) ~total_ns:None Policy.default);
  ignore (Testbed.benchmark kernel Testbed.Nginx ~scale:1000 ());
  let _, report = Manager.update m (Testbed.final_version Testbed.Nginx) in
  Alcotest.(check bool) "committed" true report.Manager.success;
  (match report.Manager.flight.Flight.f_slo with
  | None -> Alcotest.fail "SLO budget set but not evaluated"
  | Some s ->
      Alcotest.(check bool) "1 ns downtime budget violated" false s.Flight.s_downtime_ok;
      Alcotest.(check bool) "no total budget -> ok" true s.Flight.s_total_ok;
      Alcotest.(check bool) "slo_violated" true (Flight.slo_violated s));
  let snap = Metrics.snapshot (Manager.metrics m) in
  Alcotest.(check (option int)) "mcr_slo_violations_total" (Some 1)
    (Metrics.find_counter snap "mcr_slo_violations_total")

let test_slo_met () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  Manager.set_policy m
    (Policy.with_slo ~downtime_ns:(Some 60_000_000_000)
       ~total_ns:(Some 60_000_000_000) Policy.default);
  let _, report = Manager.update m (Testbed.final_version Testbed.Nginx) in
  Alcotest.(check bool) "committed" true report.Manager.success;
  (match report.Manager.flight.Flight.f_slo with
  | Some s -> Alcotest.(check bool) "budgets met" false (Flight.slo_violated s)
  | None -> Alcotest.fail "SLO budget set but not evaluated");
  let snap = Metrics.snapshot (Manager.metrics m) in
  Alcotest.(check (option int)) "no violation counted" (Some 0)
    (Metrics.find_counter snap "mcr_slo_violations_total")

(* ------------------------------------------------------------------ *)
(* Retry lineage *)

let test_retry_lineage () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let m2, report =
    Manager.update m
      ~policy:(Policy.with_retries 2 Policy.default)
      ~fault:(Fault.script [ Fault.Transfer_conflict ])
      (Testbed.final_version Testbed.Httpd)
  in
  Alcotest.(check bool) "retry commits" true report.Manager.success;
  let f = report.Manager.flight in
  Alcotest.(check int) "winning attempt index" 1 f.Flight.f_attempt;
  (match f.Flight.f_prior with
  | [ p ] ->
      Alcotest.(check int) "prior attempt index" 0 p.Flight.f_attempt;
      Alcotest.(check bool) "prior attempt failed" false p.Flight.f_success;
      Alcotest.(check bool) "prior attempt explained" true
        (p.Flight.f_explanation <> None);
      Alcotest.(check bool) "lineage flattened" true (p.Flight.f_prior = []);
      check_reconciled "prior attempt" p
  | ps -> Alcotest.failf "expected 1 prior attempt, got %d" (List.length ps));
  check_reconciled "winning attempt" f;
  (* both attempts are in the ring, newest first, seq monotonic *)
  match Manager.flight_records m2 with
  | newest :: older :: _ ->
      Alcotest.(check bool) "newest is the commit" true newest.Flight.f_success;
      Alcotest.(check bool) "older is the rollback" false older.Flight.f_success;
      Alcotest.(check bool) "seq monotonic" true
        (newest.Flight.f_seq > older.Flight.f_seq)
  | _ -> Alcotest.fail "ring should hold both attempts"

(* ------------------------------------------------------------------ *)
(* Post-mortem narrative *)

let test_postmortem_narrative () =
  let report =
    flight_of ~workers:1 ~precopy:false
      ~fault:(Fault.script [ Fault.Transfer_conflict ])
      Testbed.Httpd
  in
  let text = Postmortem.render report.Manager.flight in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "narrative mentions %S" needle) true
        (contains text needle))
    [
      "ROLLED BACK";
      "state_transfer";
      "mutable tracing conflict";
      "injected";
      "transfer_conflict";
      "components sum to the reported downtime exactly";
    ]

let test_postmortem_waterfall () =
  let report = flight_of ~workers:4 ~precopy:true Testbed.Nginx in
  let text = Postmortem.render report.Manager.flight in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "waterfall mentions %S" needle) true
        (contains text needle))
    [ "COMMITTED"; "downtime waterfall:"; "quiesce"; "pre-copy rounds (prepaid" ]

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "flight"
    [
      ( "frame",
        [
          Alcotest.test_case "request parsing" `Quick test_frame_requests;
          Alcotest.test_case "reply parsing" `Quick test_frame_replies;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "matrix: servers x workers x precopy" `Slow
            test_attribution_matrix;
          Alcotest.test_case "rollback attempts reconcile" `Quick
            test_attribution_rollback;
          qt attribution_seeded_prop;
        ] );
      ( "json",
        [ Alcotest.test_case "to_json/of_json round-trip" `Quick test_json_roundtrip ] );
      ( "explain",
        [
          Alcotest.test_case "golden payload over the wire" `Quick test_explain_golden;
          Alcotest.test_case "wire errors" `Quick test_explain_wire_errors;
          Alcotest.test_case "empty recorder refuses" `Quick test_explain_empty;
        ] );
      ("exit-paths", [ Alcotest.test_case "golden per exit" `Quick test_exit_paths_golden ]);
      ( "slo",
        [
          Alcotest.test_case "violation recorded and counted" `Quick test_slo_violation;
          Alcotest.test_case "met budgets" `Quick test_slo_met;
        ] );
      ("retry", [ Alcotest.test_case "lineage" `Quick test_retry_lineage ]);
      ( "postmortem",
        [
          Alcotest.test_case "conflict narrative" `Quick test_postmortem_narrative;
          Alcotest.test_case "waterfall" `Quick test_postmortem_waterfall;
        ] );
    ]
