type t = {
  quiesce_deadline_ns : int option;
  update_deadline_ns : int option;
  retries : int;
  retry_backoff_ns : int;
  fault_seed : int option;
  dirty_only : bool;
  precopy : bool;
  precopy_max_rounds : int;
  precopy_threshold_words : int;
  transfer_workers : int;
  transfer_remap : bool;
  slo_downtime_ns : int option;
  slo_total_ns : int option;
  image_dir : string option;
  request_parking : bool;
  drain_ns : int;
  concurrent_transfer : bool;
}

let default =
  {
    quiesce_deadline_ns = None;
    update_deadline_ns = None;
    retries = 0;
    retry_backoff_ns = 100_000_000;
    fault_seed = None;
    dirty_only = true;
    precopy = false;
    precopy_max_rounds = 4;
    precopy_threshold_words = 512;
    transfer_workers = 1;
    transfer_remap = false;
    slo_downtime_ns = None;
    slo_total_ns = None;
    image_dir = None;
    request_parking = false;
    drain_ns = 2_000_000;
    concurrent_transfer = false;
  }

let with_quiesce_deadline_ns q t = { t with quiesce_deadline_ns = q }
let with_update_deadline_ns u t = { t with update_deadline_ns = u }

let with_deadlines ~quiesce_ns ~update_ns t =
  { t with quiesce_deadline_ns = quiesce_ns; update_deadline_ns = update_ns }

let with_retries ?backoff_ns n t =
  if n < 0 then invalid_arg "Policy.with_retries: negative count";
  { t with retries = n; retry_backoff_ns = Option.value backoff_ns ~default:t.retry_backoff_ns }

let with_fault_seed s t = { t with fault_seed = s }
let with_dirty_only d t = { t with dirty_only = d }

let with_precopy ?max_rounds ?threshold_words enabled t =
  let max_rounds = Option.value max_rounds ~default:t.precopy_max_rounds in
  let threshold_words = Option.value threshold_words ~default:t.precopy_threshold_words in
  if max_rounds < 1 then invalid_arg "Policy.with_precopy: max_rounds must be >= 1";
  if threshold_words < 0 then invalid_arg "Policy.with_precopy: negative threshold";
  {
    t with
    precopy = enabled;
    precopy_max_rounds = max_rounds;
    precopy_threshold_words = threshold_words;
  }

let with_transfer_workers n t =
  if n < 1 then invalid_arg "Policy.with_transfer_workers: workers must be >= 1";
  { t with transfer_workers = n }

let with_transfer_remap r t = { t with transfer_remap = r }

let with_slo ~downtime_ns ~total_ns t =
  (match (downtime_ns, total_ns) with
  | Some d, _ when d <= 0 -> invalid_arg "Policy.with_slo: downtime budget must be positive"
  | _, Some ut when ut <= 0 -> invalid_arg "Policy.with_slo: total budget must be positive"
  | _ -> ());
  { t with slo_downtime_ns = downtime_ns; slo_total_ns = total_ns }

let with_image_dir d t = { t with image_dir = d }

let with_request_parking ?drain_ns enabled t =
  let drain_ns = Option.value drain_ns ~default:t.drain_ns in
  if drain_ns < 0 then invalid_arg "Policy.with_request_parking: negative drain budget";
  { t with request_parking = enabled; drain_ns }

let with_concurrent_transfer c t = { t with concurrent_transfer = c }

(* Key=value rendering embedded in checkpoint images (section POLI) so an
   offline replay can re-run an update under the exact policy that
   produced it. Only scalar fields round-trip; [image_dir] deliberately
   does not (a replayed update must not re-snapshot images). *)
let to_kv t =
  let opt = function None -> "-" | Some n -> string_of_int n in
  String.concat " "
    [
      "quiesce_deadline_ns=" ^ opt t.quiesce_deadline_ns;
      "update_deadline_ns=" ^ opt t.update_deadline_ns;
      "retries=" ^ string_of_int t.retries;
      "retry_backoff_ns=" ^ string_of_int t.retry_backoff_ns;
      "fault_seed=" ^ opt t.fault_seed;
      "dirty_only=" ^ string_of_bool t.dirty_only;
      "precopy=" ^ string_of_bool t.precopy;
      "precopy_max_rounds=" ^ string_of_int t.precopy_max_rounds;
      "precopy_threshold_words=" ^ string_of_int t.precopy_threshold_words;
      "transfer_workers=" ^ string_of_int t.transfer_workers;
      "transfer_remap=" ^ string_of_bool t.transfer_remap;
      "slo_downtime_ns=" ^ opt t.slo_downtime_ns;
      "slo_total_ns=" ^ opt t.slo_total_ns;
      "request_parking=" ^ string_of_bool t.request_parking;
      "drain_ns=" ^ string_of_int t.drain_ns;
      "concurrent_transfer=" ^ string_of_bool t.concurrent_transfer;
    ]

let int_exn v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Policy.of_kv: %S is not an integer" v)

let bool_exn v =
  match bool_of_string_opt v with
  | Some b -> b
  | None -> failwith (Printf.sprintf "Policy.of_kv: %S is not a boolean" v)

let of_kv s =
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> None
        | Some i ->
            Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
      (String.split_on_char ' ' s)
  in
  (* Values go through the builders, so text from an image obeys the same
     range checks as a policy built in code: a value the builders reject is
     an [Error] here, not an exception later in the update pipeline. *)
  try
    let get k = List.assoc_opt k fields in
    let opt k = match get k with None | Some "-" -> None | Some v -> Some (int_exn v)
    and int k d = match get k with None -> d | Some v -> int_exn v
    and bool k d = match get k with None -> d | Some v -> bool_exn v in
    Ok
      (default
      |> with_deadlines ~quiesce_ns:(opt "quiesce_deadline_ns") ~update_ns:(opt "update_deadline_ns")
      |> with_retries
           ~backoff_ns:(int "retry_backoff_ns" default.retry_backoff_ns)
           (int "retries" default.retries)
      |> with_fault_seed (opt "fault_seed")
      |> with_dirty_only (bool "dirty_only" default.dirty_only)
      |> with_precopy
           ~max_rounds:(int "precopy_max_rounds" default.precopy_max_rounds)
           ~threshold_words:(int "precopy_threshold_words" default.precopy_threshold_words)
           (bool "precopy" default.precopy)
      |> with_transfer_workers (int "transfer_workers" default.transfer_workers)
      |> with_transfer_remap (bool "transfer_remap" default.transfer_remap)
      |> with_slo ~downtime_ns:(opt "slo_downtime_ns") ~total_ns:(opt "slo_total_ns")
      |> with_request_parking ~drain_ns:(int "drain_ns" default.drain_ns)
           (bool "request_parking" default.request_parking)
      |> with_concurrent_transfer (bool "concurrent_transfer" default.concurrent_transfer))
  with Stdlib.Failure msg | Invalid_argument msg -> Error msg

let pp ppf t =
  let opt ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some n -> Format.pp_print_int ppf n
  in
  Format.fprintf ppf
    "@[<hov>quiesce_deadline_ns=%a update_deadline_ns=%a retries=%d retry_backoff_ns=%d \
     fault_seed=%a dirty_only=%b precopy=%b precopy_max_rounds=%d precopy_threshold_words=%d \
     transfer_workers=%d transfer_remap=%b slo_downtime_ns=%a slo_total_ns=%a image_dir=%s \
     request_parking=%b drain_ns=%d concurrent_transfer=%b@]"
    opt t.quiesce_deadline_ns opt t.update_deadline_ns t.retries t.retry_backoff_ns opt
    t.fault_seed t.dirty_only t.precopy t.precopy_max_rounds t.precopy_threshold_words
    t.transfer_workers t.transfer_remap opt t.slo_downtime_ns opt t.slo_total_ns
    (Option.value t.image_dir ~default:"-")
    t.request_parking t.drain_ns t.concurrent_transfer
