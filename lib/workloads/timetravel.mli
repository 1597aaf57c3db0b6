(** Offline time travel over persistent checkpoint images.

    An image snapped at an update's quiescent point
    ({!Mcr_core.Policy.t.image_dir}) embeds the saving policy, the update's
    target version tag and — once the attempt finished — its flight
    record. Because updates are deterministic, restoring such an image into
    a fresh kernel and re-running the update must reproduce the recorded
    verdict bit-for-bit; {!replay} performs that re-run and says whether it
    did. [mcr-postmortem --replay] is the CLI spelling. *)

val server_of_prog : string -> Testbed.server option
(** Map an image's program name (e.g. ["nginx"]) back to its testbed
    server. *)

val restore :
  Mcr_image.Image.t ->
  ( Mcr_simos.Kernel.t * Mcr_core.Manager.t * Mcr_image.Image.install_report,
    string )
  result
(** Materialize the image into a brand-new kernel: launch the image's
    program and version via {!Testbed.launch}, then install the image over
    it ({!Mcr_core.Manager.restore_image}). On [Ok] the returned manager
    serves with the image's exact state (fingerprint verified). *)

type verdict = {
  v_reproduced : bool;
      (** The offline re-run reached the recorded outcome: same
          commit/rollback flag and, for rollbacks, the same frozen reason
          and failing stage. *)
  v_expected_success : bool;  (** What the embedded flight record says. *)
  v_got_success : bool;  (** What the offline re-run produced. *)
  v_expected_reason : string option;
  v_got_reason : string option;
  v_expected_stage : string option;
  v_got_stage : string option;
  v_fingerprint : int;  (** The image's recorded fingerprint. *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val replay : Mcr_image.Image.t -> (verdict, string) result
(** {!restore} the image, rebuild the saving policy
    ({!Mcr_core.Policy.of_kv} of the embedded text — including any armed
    fault seed, so injected failures re-fire identically), re-run the
    update toward the embedded target tag and compare the outcome against
    the embedded flight record. [Error] means the replay could not run at
    all (no flight record, embedded policy text that {!Mcr_core.Policy.of_kv}
    rejects, unknown program/version, restore failure) —
    distinct from [Ok { v_reproduced = false; _ }], which means it ran and
    contradicted the record. *)

val replay_path : path:string -> (verdict, string) result
(** {!Mcr_image.Image.read} then {!replay}. *)
