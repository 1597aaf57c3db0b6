(* Persistent checkpoint images: codec round-trips, golden corruption
   rejection, restart-from-file under load, ctl SAVE/RESTORE, fleet
   migration/failover and offline replay of recorded updates. *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Fault = Mcr_fault.Fault
module Image = Mcr_image.Image
module Fnv = Mcr_util.Fnv
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Bench_result = Mcr_workloads.Bench_result
module Timetravel = Mcr_workloads.Timetravel
module Fleet = Mcr_fleet.Fleet
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 30_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let error = Alcotest.testable Image.pp_error ( = )

let tmp_image name =
  let path = Filename.temp_file ("mcr_" ^ name) ".mcrimg" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let tmp_dir name =
  let path = Filename.temp_file ("mcr_" ^ name) ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

(* A small loaded instance: launch, run the paper benchmark so heaps,
   pools and page-dirty state are non-trivial, then save. *)
let loaded_save server name =
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  ignore (Testbed.benchmark kernel server ~scale:3_000 ());
  let path = tmp_image name in
  match Manager.save_image m ~path with
  | Error e -> Alcotest.fail e
  | Ok img -> (kernel, m, path, img)

(* {1 Codec} *)

let test_roundtrip () =
  let _kernel, _m, path, img = loaded_save Testbed.Httpd "roundtrip" in
  match Image.read ~path with
  | Error e -> Alcotest.failf "read back: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check string) "prog survives" (Image.prog img) (Image.prog img');
      Alcotest.(check string) "version survives" (Image.version_tag img)
        (Image.version_tag img');
      Alcotest.(check int) "fingerprint survives" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "proc count survives" (Image.proc_count img)
        (Image.proc_count img');
      Alcotest.(check int) "clock survives" (Image.clock_ns img) (Image.clock_ns img');
      Alcotest.(check string) "re-encode is byte-identical" (Image.encode img)
        (Image.encode img')

let test_layout_names_sections () =
  let _kernel, _m, _path, img = loaded_save Testbed.Vsftpd "layout" in
  let tags = List.map (fun (tag, _, _) -> tag) (Image.layout img) in
  Alcotest.(check bool) "meta section present" true (List.mem "META" tags);
  Alcotest.(check bool) "proc sections present" true (List.mem "PROC" tags);
  Alcotest.(check int) "one PROC per process" (Image.proc_count img)
    (List.length (List.filter (( = ) "PROC") tags))

(* {1 Golden corruption: every broken image is rejected with a typed error
   naming the failing section.}

   Layout under test (all integers 64-bit LE): magic at 0, format version
   at 8, section count at 16, first section (META) tag at 24, its name
   string ["meta"] at 28 (length) / 36 (bytes), its payload length at 40,
   payload at 48 — which itself starts with the program-name string, so
   byte 56 is the first program-name byte. *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let set_byte s i v =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr v);
  Bytes.to_string b

let check_rejected name expected data =
  match Image.decode data with
  | Ok _ -> Alcotest.failf "%s: corrupted image decoded successfully" name
  | Error e -> Alcotest.check error name expected e

let test_corruption_goldens () =
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "goldens" in
  let enc = Image.encode img in
  let len = String.length enc in
  check_rejected "flipped magic" Image.Bad_magic (flip enc 0);
  check_rejected "empty file" (Image.Truncated { section = "header" }) "";
  let v = Image.format_version in
  check_rejected "bumped format version"
    (Image.Version_skew { found = v + 1; expected = v })
    (set_byte enc 8 (v + 1));
  (* version skew outranks every hash: a future-format image is reported
     as such even though its trailer no longer matches *)
  check_rejected "version skew beats hash check"
    (Image.Version_skew { found = v + 2; expected = v })
    (set_byte (flip enc 56) 8 (v + 2));
  check_rejected "chopped trailer"
    (Image.Truncated { section = "trailer" })
    (String.sub enc 0 (len - 1));
  check_rejected "cut mid-section"
    (Image.Truncated { section = "meta" })
    (String.sub enc 0 40);
  check_rejected "bit flip inside meta payload"
    (Image.Hash_mismatch { section = "meta" })
    (flip enc 56);
  check_rejected "bit flip in trailer"
    (Image.Hash_mismatch { section = "image" })
    (flip enc (len - 1))

let u64_le n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

let w_str s = u64_le (String.length s) ^ s

let test_unknown_section_skipped () =
  (* forward compatibility: a same-format image carrying a section tag we
     do not know decodes fine — the unknown section is skipped *)
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "forward" in
  let enc = Image.encode img in
  let body = String.sub enc 0 (String.length enc - 8) in
  let count = Int64.to_int (Bytes.get_int64_le (Bytes.of_string enc) 16) in
  let body = Bytes.of_string body in
  Bytes.blit_string (u64_le (count + 1)) 0 body 16 8;
  let payload = "opaque bytes from the future" in
  let extra = "ZZZZ" ^ w_str "future" ^ w_str payload ^ u64_le (Fnv.string payload) in
  let body = Bytes.to_string body ^ extra in
  match Image.decode (body ^ u64_le (Fnv.string body)) with
  | Error e ->
      Alcotest.failf "unknown section rejected: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check int) "payload intact" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "known procs intact" (Image.proc_count img)
        (Image.proc_count img')

(* Length fields near max_int: the bounds checks compare against the
   bytes remaining, so no sum or product can wrap negative and slip a
   huge length past them into String.sub / Array.init. *)
let test_oversized_lengths () =
  let header count = "MCRIMAGE" ^ u64_le Image.format_version ^ u64_le count in
  let section tag name payload =
    tag ^ w_str name ^ w_str payload ^ u64_le (Fnv.string payload)
  in
  let sealed body = body ^ u64_le (Fnv.string body) in
  check_rejected "section name of max_int bytes"
    (Image.Truncated { section = "META" })
    (header 1 ^ "META" ^ u64_le max_int ^ "xx");
  (* a page record is 8 x 513 bytes, and that product wraps negative for
     this page count; one field is present, so only the bounds check stands
     between it and List.init *)
  let region =
    w_str "r" ^ w_str "static" ^ u64_le 4096 ^ u64_le 4096
    ^ u64_le ((max_int / (8 * 513)) + 2)
    ^ u64_le 0
  in
  let proc =
    u64_le 1 ^ w_str "p" ^ u64_le 0 ^ u64_le 1 ^ u64_le 0 ^ u64_le 0
    ^ u64_le 0 (* no fds *) ^ u64_le 1 (* one region *) ^ region
  in
  let meta = w_str "prog" ^ w_str "v1" ^ u64_le 0 ^ u64_le 0 ^ u64_le 1 in
  check_rejected "region page count past the payload"
    (Image.Malformed { section = "proc"; reason = "proc section p0 is self-inconsistent" })
    (sealed (header 2 ^ section "META" "meta" meta ^ section "PROC" "p0" proc))

(* {1 Decoder totality fuzz}

   Mutations of real [encode] output of every server: raw bit flips,
   truncations and 8-byte field rewrites (caught by the framing and the
   hashes), and the same mutations inside one section's payload with the
   section hash and trailer re-sealed, so they reach the payload parsers.
   Rewritten values include max_int, min_int, negatives and lengths near
   the remaining byte count. [decode] must return [Ok] or a typed error;
   it must never raise. *)

let split_sections enc =
  let u64 pos = Int64.to_int (String.get_int64_le enc pos) in
  let count = u64 16 in
  let rec go pos i acc =
    if i = count then List.rev acc
    else
      let tag = String.sub enc pos 4 in
      let name = String.sub enc (pos + 12) (u64 (pos + 4)) in
      let pl_pos = pos + 12 + String.length name in
      let payload = String.sub enc (pl_pos + 8) (u64 pl_pos) in
      go (pl_pos + 8 + String.length payload + 8) (i + 1) ((tag, name, payload) :: acc)
  in
  go 24 0 []

let seal ~count sections =
  let body =
    "MCRIMAGE" ^ u64_le Image.format_version ^ u64_le count
    ^ String.concat ""
        (List.map
           (fun (tag, name, payload) ->
             tag ^ w_str name ^ w_str payload ^ u64_le (Fnv.string payload))
           sections)
  in
  body ^ u64_le (Fnv.string body)

let fuzz_corpus =
  lazy
    (List.map
       (fun server ->
         let kernel = K.create () in
         let m = Testbed.launch kernel server in
         ignore (Testbed.benchmark kernel server ~scale:50 ());
         match Manager.save_image m ~path:(tmp_image "fuzz") with
         | Error e -> failwith e
         | Ok img ->
             let enc = Image.encode img in
             let sections = split_sections enc in
             if seal ~count:(List.length sections) sections <> enc then
               failwith "fuzz corpus: section split does not re-seal to the encoding";
             (server, enc, Array.of_list sections))
       Testbed.all)

(* Encoder golden: the MD5 of every server's [encode] output, pinned so a
   codec rewrite that claims byte-identical output has to show it. *)
let encode_goldens =
  [
    ("Apache httpd", "01e95a9b776983b8a09f7f4ffbdb9e8b");
    ("nginx", "21c100860d8c5e6c2de69733f6f5142e");
    ("vsftpd", "095959bc85a13eca8ec0aa6d771f2e36");
    ("OpenSSH", "821d1018c033e81fac18ae4e4b55325a");
  ]

let test_encode_golden () =
  Alcotest.(check (list (pair string string)))
    "per-server encoding digests" encode_goldens
    (List.map
       (fun (server, enc, _) -> (Testbed.name server, Digest.to_hex (Digest.string enc)))
       (Lazy.force fuzz_corpus))

(* Fingerprint golden: [Image.fingerprint] of the same images, as the dense
   v1 code computed it. The encodings above changed with the sparse format;
   the fingerprint, the witness every restore is checked against, must
   not. *)
let fingerprint_goldens =
  [
    ("Apache httpd", 1275484607942099102);
    ("nginx", 369589433702249752);
    ("vsftpd", 4302084222797450735);
    ("OpenSSH", 3260854520958018513);
  ]

let test_fingerprint_golden () =
  Alcotest.(check (list (pair string int)))
    "per-server fingerprints" fingerprint_goldens
    (List.map
       (fun (server, enc, _) ->
         match Image.decode enc with
         | Ok img -> (Testbed.name server, Image.fingerprint img)
         | Error e -> Alcotest.fail (Image.error_to_string e))
       (Lazy.force fuzz_corpus))

let corpus_encoding server =
  let _, enc, _ = List.find (fun (s, _, _) -> s = server) (Lazy.force fuzz_corpus) in
  enc

(* v2 stores each region sparsely; there is no v1 reader, so a v1 file is
   refused by its header before any section is parsed. *)
let test_v1_refused () =
  check_rejected "v1 header" (Image.Version_skew { found = 1; expected = 2 })
    (set_byte (corpus_encoding Testbed.Httpd) 8 1)

(* Every integer field is 8 little-endian bytes carrying the 63 bits of an
   OCaml int: byte 7's top bit is written clear and ignored on read. A
   META-only image with the value in its clock and fingerprint fields must
   decode to the value and re-encode to the same bytes. *)
let test_u64_field_roundtrip () =
  let field n = "\000\000\000\000\000\000\000" ^ String.make 1 (Char.chr n) in
  let ones top = String.make 7 '\xff' ^ String.make 1 (Char.chr top) in
  let meta_image bytes =
    seal ~count:1 [ ("META", "meta", w_str "p" ^ w_str "v" ^ bytes ^ bytes ^ u64_le 0) ]
  in
  List.iter
    (fun (label, n, bytes, canonical) ->
      match Image.decode (meta_image bytes) with
      | Error e -> Alcotest.failf "%s: %s" label (Image.error_to_string e)
      | Ok img ->
          Alcotest.(check int) (label ^ ": clock") n (Image.clock_ns img);
          Alcotest.(check int) (label ^ ": fingerprint") n (Image.fingerprint img);
          Alcotest.(check string) (label ^ ": re-encoded bytes") (meta_image canonical)
            (Image.encode img))
    [
      ("0", 0, field 0, field 0);
      ("-1", -1, ones 0x7f, ones 0x7f);
      ("min_int", min_int, field 0x40, field 0x40);
      ("max_int", max_int, ones 0x3f, ones 0x3f);
      (* 2^62 does not fit a 63-bit int: its bytes read back as min_int *)
      ("2^62", 1 lsl 62, field 0x40, field 0x40);
      ("top bit set", -1, ones 0xff, ones 0x7f);
    ]

(* Offsets are taken modulo the room available; a negative offset counts
   back from the end. Most of a PROC payload is region words, so the
   generator aims two edits in three at either end, where the counts and
   length fields sit. *)
type edit =
  | Flip of int * int  (* byte offset, bit *)
  | Truncate of int
  | Rewrite of int * int  (* byte offset, 64-bit value *)

type mutation =
  | Raw of edit
  | In_payload of int * edit  (* section index; re-sealed *)
  | Section_count of int  (* re-sealed *)

let pp_edit = function
  | Flip (off, bit) -> Printf.sprintf "flip bit %d @%d" bit off
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Rewrite (off, v) -> Printf.sprintf "rewrite @%d := %d" off v

let pp_mutation = function
  | Raw e -> pp_edit e
  | In_payload (i, e) -> Printf.sprintf "section %d: %s" i (pp_edit e)
  | Section_count n -> Printf.sprintf "section count := %d" n

let gen_mutation =
  let open QCheck.Gen in
  let value =
    oneof
      [
        oneofl
          [ max_int; min_int; -1; -8; 0; 1; 7; 8; 255; 1 lsl 31; 1 lsl 32; (max_int / 8) + 2 ];
        int;
        small_nat;
      ]
  in
  let offset = oneof [ int_bound 512; map (fun n -> -1 - n) (int_bound 4096); nat ] in
  let edit =
    frequency
      [
        (3, map (fun (off, bit) -> Flip (off, bit)) (pair offset (int_bound 7)));
        (2, map (fun n -> Truncate n) nat);
        (4, map (fun (off, v) -> Rewrite (off, v)) (pair offset value));
      ]
  in
  frequency
    [
      (3, map (fun e -> Raw e) edit);
      (6, map (fun (i, e) -> In_payload (i, e)) (pair nat edit));
      (1, map (fun v -> Section_count v) value);
    ]

let locate ~room off = if off >= 0 then off mod room else room - 1 - ((-1 - off) mod room)

let apply_edit s = function
  | Flip (off, bit) ->
      if s = "" then s
      else
        let b = Bytes.of_string s in
        let i = locate ~room:(Bytes.length b) off in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Bytes.to_string b
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Rewrite (off, v) ->
      if String.length s < 8 then s
      else
        let b = Bytes.of_string s in
        Bytes.set_int64_le b (locate ~room:(String.length s - 7) off) (Int64.of_int v);
        Bytes.to_string b

let apply_mutation enc sections = function
  | Raw e -> apply_edit enc e
  | In_payload (i, e) ->
      let i = i mod Array.length sections in
      let sections = Array.copy sections in
      let tag, name, payload = sections.(i) in
      sections.(i) <- (tag, name, apply_edit payload e);
      seal ~count:(Array.length sections) (Array.to_list sections)
  | Section_count n -> seal ~count:n (Array.to_list sections)

(* A mutant that decodes is restored over a fresh instance of its server:
   restore too must return [Ok] or a typed error, never raise. *)
let prop_decode_total =
  QCheck.Test.make ~name:"decode is total on mutated images" ~count:300
    (QCheck.make
       ~print:(fun (k, m) -> Printf.sprintf "server %d, %s" k (pp_mutation m))
       QCheck.Gen.(pair nat gen_mutation))
    (fun (k, m) ->
      let corpus = Lazy.force fuzz_corpus in
      let server, enc, sections = List.nth corpus (k mod List.length corpus) in
      let raised stage e =
        QCheck.Test.fail_reportf "%s image, %s: %s raised %s" (Testbed.name server)
          (pp_mutation m) stage (Printexc.to_string e)
      in
      match Image.decode (apply_mutation enc sections m) with
      | Error _ -> true
      | Ok img -> (
          let target = Testbed.launch (K.create ()) server in
          match Manager.restore_image target img with
          | Ok _ | Error _ -> true
          | exception e -> raised "restore" e)
      | exception e -> raised "decode" e)

(* {1 Region shapes}

   Every region, page record, page state and pool chunk of a PROC section
   is checked against the rules install relies on, so a re-sealed image
   whose fields are consistent with its hashes but not with each other is
   refused by [decode] as [Malformed] before any restore sees it. *)

type field_cursor = { payload : string; mutable at : int }

let next_u64 c =
  let v = Int64.to_int (String.get_int64_le c.payload c.at) in
  c.at <- c.at + 8;
  v

let skip_str c = c.at <- c.at + next_u64 c

let skip_list c f =
  for _ = 1 to next_u64 c do
    f c
  done

type region_fields = {
  kind_at : int;  (* the kind string's bytes *)
  kind_len : int;
  base_at : int;
  size_at : int;
  r_base : int;
  r_size : int;
  page_index_at : int list;  (* one per page record, in order *)
}

(* Field offsets of a PROC payload, read in [Image.encode]'s order: the
   regions, the first page state, and the first pool chunk. *)
let proc_fields payload =
  let c = { payload; at = 0 } in
  ignore (next_u64 c);
  (* pid *)
  skip_str c;
  c.at <- c.at + 32;
  (* creation call stack, startup flag, layout bias, write sequence *)
  skip_list c (fun c -> ignore (next_u64 c));
  let regions =
    List.init (next_u64 c) (fun _ ->
        skip_str c;
        let kind_len = next_u64 c in
        let kind_at = c.at in
        c.at <- c.at + kind_len;
        let base_at = c.at in
        let r_base = next_u64 c in
        let size_at = c.at in
        let r_size = next_u64 c in
        let page_index_at =
          List.init (next_u64 c) (fun _ ->
              let at = c.at in
              c.at <- c.at + (8 * 513);
              at)
        in
        { kind_at; kind_len; base_at; size_at; r_base; r_size; page_index_at })
  in
  let first_page_state_at = c.at + 8 in
  skip_list c (fun c -> c.at <- c.at + 32);
  skip_list c (fun c ->
      skip_str c;
      ignore (next_u64 c));
  (* epochs *)
  skip_list c (fun c ->
      ignore (next_u64 c);
      skip_str c;
      skip_list c skip_str;
      if next_u64 c <> 0 then skip_str c);
  (* threads *)
  for _ = 1 to 2 do
    if next_u64 c <> 0 then c.at <- c.at + 48
  done;
  (* heap and library heap; then the first pool's first chunk *)
  if next_u64 c = 0 then Alcotest.fail "process has no pool";
  skip_str c;
  c.at <- c.at + 40;
  if next_u64 c = 0 then Alcotest.fail "first pool has no chunk";
  let first_chunk_at = c.at in
  (regions, first_page_state_at, first_chunk_at)

let rewrite payload at v =
  let b = Bytes.of_string payload in
  Bytes.set_int64_le b at (Int64.of_int v);
  Bytes.to_string b

let test_region_shapes_refused () =
  let sections = Array.of_list (split_sections (corpus_encoding Testbed.Httpd)) in
  let proc_index =
    let rec find i = if (fun (tag, _, _) -> tag) sections.(i) = "PROC" then i else find (i + 1) in
    find 0
  in
  let tag, name, payload = sections.(proc_index) in
  let regions, page_state_at, chunk_at = proc_fields payload in
  let resealed label payload' =
    let sections = Array.copy sections in
    sections.(proc_index) <- (tag, name, payload');
    (label, seal ~count:(Array.length sections) (Array.to_list sections))
  in
  let first = List.hd regions and second = List.nth regions 1 in
  let paged = List.find (fun r -> List.length r.page_index_at >= 2) regions in
  let cases =
    [
      (* the probe that made install raise Invalid_argument from Aspace.map *)
      resealed "zero-size region" (rewrite payload first.size_at 0);
      resealed "negative size" (rewrite payload first.size_at (-4096));
      resealed "size not whole pages" (rewrite payload first.size_at (first.r_size + 8));
      resealed "size past the end of the address range"
        (rewrite payload first.size_at (max_int - 4095));
      resealed "region past 4 GiB" (rewrite payload first.size_at (1 lsl 32));
      resealed "base not page-aligned" (rewrite payload first.base_at (first.r_base + 8));
      resealed "base at null" (rewrite payload first.base_at 0);
      resealed "overlapping regions" (rewrite payload second.base_at first.r_base);
      resealed "unknown kind"
        (String.mapi
           (fun i ch ->
             if i >= first.kind_at && i < first.kind_at + first.kind_len then 'x' else ch)
           payload);
      resealed "page index past the region"
        (rewrite payload (List.hd paged.page_index_at) (paged.r_size / 4096));
      resealed "page index repeated"
        (rewrite payload (List.nth paged.page_index_at 1)
           (Int64.to_int (String.get_int64_le payload (List.hd paged.page_index_at))));
      resealed "page state outside every region" (rewrite payload page_state_at 4096);
      resealed "pool chunk outside every region" (rewrite payload chunk_at 4096);
    ]
  in
  List.iter
    (fun (label, data) ->
      match Image.decode data with
      | Error (Image.Malformed { section = "proc"; reason }) ->
          Alcotest.(check bool) (label ^ ": reason names the section " ^ reason) true
            (contains reason name)
      | Error e -> Alcotest.failf "%s: %s" label (Image.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: decoded" label)
    cases

(* Heap tags travel as page contents, so a re-sealed image can carry a
   block header without the allocator's magic. Restore rebuilds the heap's
   view by walking those tags and must refuse with a typed error. *)
let test_corrupt_heap_tags_refused () =
  let sections = split_sections (corpus_encoding Testbed.Httpd) in
  let sections =
    List.map
      (fun ((tag, name, payload) as section) ->
        if name <> "proc.0" then section
        else
          let regions, _, _ = proc_fields payload in
          let heap =
            List.find (fun r -> String.sub payload r.kind_at r.kind_len = "heap") regions
          in
          (* the heap's first word, in its first page record, is a block header *)
          (tag, name, rewrite payload (List.hd heap.page_index_at + 8) 0))
      sections
  in
  match Image.decode (seal ~count:(List.length sections) sections) with
  | Error e -> Alcotest.fail (Image.error_to_string e)
  | Ok img -> (
      let target = Testbed.launch (K.create ()) Testbed.Httpd in
      match Manager.restore_image target img with
      | Ok _ -> Alcotest.fail "restored over corrupt heap tags"
      | Error e ->
          Alcotest.(check bool) ("typed error: " ^ e) true (contains e "corrupted block header"))

(* {1 Sparse pages}

   An image stores only the pages holding a nonzero word; every other page
   of a saved region reads as zero. *)

let page_addrs asp =
  List.concat_map
    (fun (r : Region.t) ->
      List.init (r.Region.size / Addr.page_size) (fun i ->
          Addr.add r.Region.base (i * Addr.page_size)))
    (Aspace.regions asp)

let nonzero_pages asp =
  List.length (List.filter (fun a -> not (Aspace.page_is_zero asp a)) (page_addrs asp))

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

(* Every byte of an image that is neither a page record (8 x 513 bytes) nor
   a page state (32 bytes): the section framing, names, threads, heaps,
   pools and slabs. 0.6 to 2.4 KiB per process on the four servers. *)
let framing_budget_per_proc = 4096

let test_sparse_roundtrip () =
  List.iter
    (fun server ->
      let label what = Printf.sprintf "%s: %s" (Testbed.name server) what in
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      ignore (Testbed.benchmark kernel server ~scale:2_000 ());
      let path = tmp_image "sparse" in
      let img =
        match Manager.save_image m ~path with Error e -> Alcotest.fail e | Ok img -> img
      in
      let spaces = List.map (fun im -> im.P.i_aspace) (Manager.images m) in
      let root = K.aspace (Manager.root_proc m) in
      let bytes = read_bytes path in
      let on_disk =
        match Image.read ~path with
        | Ok i -> i
        | Error e -> Alcotest.fail (Image.error_to_string e)
      in
      Alcotest.(check bool) (label "re-encode is byte-identical") true
        (Image.encode on_disk = bytes);
      let pages = List.fold_left (fun n a -> n + nonzero_pages a) 0 spaces in
      let states = List.fold_left (fun n a -> n + List.length (Aspace.page_states a)) 0 spaces in
      let bound =
        (framing_budget_per_proc * Image.proc_count img) + (8 * 513 * pages) + (32 * states)
      in
      Alcotest.(check bool)
        (label
           (Printf.sprintf "%d bytes <= %d (%d nonzero pages)" (String.length bytes) bound pages))
        true (String.length bytes <= bound);
      Alcotest.(check int) (label "logical words") (Image.total_words img)
        (List.fold_left
           (fun n a -> n + (List.length (page_addrs a) * Addr.words_per_page))
           0 spaces);
      match Timetravel.restore on_disk with
      | Error e -> Alcotest.fail e
      | Ok (_k2, m2, _) ->
          let root' = K.aspace (Manager.root_proc m2) in
          Alcotest.(check int) (label "fingerprint") (Image.fingerprint img)
            (Image.aspace_fingerprint ~prog:(Image.prog img) root');
          Alcotest.(check bool) (label "page states") true
            (Aspace.page_states root = Aspace.page_states root');
          Alcotest.(check int) (label "write sequence") (Aspace.write_seq root)
            (Aspace.write_seq root');
          Alcotest.(check (list (pair string int))) (label "epochs") (Aspace.epochs root)
            (Aspace.epochs root'))
    Testbed.all

(* Restoring the image of a just-launched instance over the same instance
   after it served load: every page the load dirtied and the image omits
   has to be zeroed again. nginx is the server whose load writes pages its
   launch left zero (its worker's cycle pool grows with every connection);
   the others serve this load from pages they had already written. *)
let test_restore_zeroes_omitted_pages () =
  let server = Testbed.Nginx in
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  let img =
    match Manager.save_image m ~path:(tmp_image "early") with
    | Error e -> Alcotest.fail e
    | Ok img -> img
  in
  let spaces = List.map (fun im -> im.P.i_aspace) (Manager.images m) in
  let zero_at_save =
    List.map (fun asp -> (asp, List.filter (Aspace.page_is_zero asp) (page_addrs asp))) spaces
  in
  ignore (Testbed.benchmark kernel server ~scale:2_000 ());
  let dirtied =
    List.concat_map
      (fun (asp, pages) ->
        List.filter_map (fun a -> if Aspace.page_is_zero asp a then None else Some (asp, a)) pages)
      zero_at_save
  in
  Alcotest.(check bool) "load left nonzero words in omitted pages" true (dirtied <> []);
  (match Manager.restore_image m img with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Alcotest.(check int) "fingerprint" (Image.fingerprint img)
    (Image.aspace_fingerprint ~prog:(Image.prog img) (K.aspace (Manager.root_proc m)));
  Alcotest.(check bool) "omitted pages zeroed" true
    (List.for_all (fun (asp, a) -> Aspace.page_is_zero asp a) dirtied)

(* Install copies no frame for a page the image omits when the target page
   is still on the shared zero frame. *)
let test_restore_keeps_zero_frame () =
  let untouched = Aspace.create () in
  let zero = Aspace.map untouched (Aspace.Near Region.Heap) ~size:Addr.page_size Region.Heap in
  let on_zero_frame asp a = Aspace.same_frame asp a untouched zero in
  List.iter
    (fun server ->
      let label what = Printf.sprintf "%s: %s" (Testbed.name server) what in
      let _k, m, _path, img = loaded_save server "zero_frame" in
      let saved = K.aspace (Manager.root_proc m) in
      let k2 = K.create () in
      let m2 = Testbed.launch k2 server in
      let target = K.aspace (Manager.root_proc m2) in
      let kept =
        List.filter
          (fun a ->
            Aspace.is_mapped_word saved a && Aspace.page_is_zero saved a && on_zero_frame target a)
          (page_addrs target)
      in
      Alcotest.(check bool) (label "pages to keep") true (List.length kept > 0);
      (match Image.install img ~members:(Manager.images m2) with
      | Error e -> Alcotest.fail (Image.error_to_string e)
      | Ok _ -> ());
      Alcotest.(check int) (label "still on the zero frame") (List.length kept)
        (List.length (List.filter (on_zero_frame target) kept)))
    Testbed.all

(* {1 Restart-from-file} *)

let test_restore_under_load () =
  (* the acceptance scenario: nginx saved under load (benchmark traffic
     plus held-open connections) restores into a brand-new kernel with a
     byte-identical root fingerprint, resumes serving, and a subsequent
     live update still commits *)
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  let _holders = Testbed.open_holders kernel Testbed.Nginx ~n:4 in
  ignore (Testbed.benchmark kernel Testbed.Nginx ~scale:3_000 ());
  let path = tmp_image "nginx_load" in
  let img =
    match Manager.save_image m ~path with
    | Error e -> Alcotest.fail e
    | Ok img -> img
  in
  match Timetravel.restore img with
  | Error e -> Alcotest.fail e
  | Ok (k2, m2, report) ->
      Alcotest.(check bool) "root paired" true (report.Image.paired_procs >= 1);
      Alcotest.(check int) "restored fingerprint is byte-identical"
        (Image.fingerprint img)
        (Image.aspace_fingerprint ~prog:(Image.prog img)
           (K.aspace (Manager.root_proc m2)));
      let r = Testbed.benchmark k2 Testbed.Nginx ~scale:3_000 () in
      Alcotest.(check int) "restored instance serves without errors" 0
        r.Bench_result.errors;
      Alcotest.(check bool) "restored instance completes requests" true
        (r.Bench_result.requests > 0);
      let _m3, rep = Manager.update m2 (Testbed.final_version Testbed.Nginx) in
      Alcotest.(check bool) "update after restore commits" true rep.Manager.success

let test_install_refuses_wrong_program () =
  let _k, _m, _path, img = loaded_save Testbed.Httpd "mismatch" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  match Manager.restore_image m img with
  | Ok _ -> Alcotest.fail "httpd image restored over nginx"
  | Error e ->
      Alcotest.(check bool) "error names both programs" true
        (contains e (Testbed.base_version Testbed.Httpd).P.prog
        && contains e (Testbed.base_version Testbed.Nginx).P.prog)

(* {1 Control socket} *)

let test_ctl_save_restore () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let ctl = Manager.ctl_path m in
  let path = tmp_image "ctl" in
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Save path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  let fp =
    match !reply with
    | Some (Ok s) -> int_of_string s
    | Some (Error e) -> Alcotest.failf "SAVE refused: %a" Ctl.pp_error e
    | None -> Alcotest.fail "no SAVE reply"
  in
  (* serve more traffic so live state drifts away from the image... *)
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:3_000 ());
  (* ...then restore in place over the control socket *)
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Restore path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  (match !reply with
  | Some (Ok s) ->
      Alcotest.(check bool) "RESTORE reply carries the fingerprint" true
        (contains s (Printf.sprintf "fingerprint=%d" fp))
  | Some (Error e) -> Alcotest.failf "RESTORE refused: %a" Ctl.pp_error e
  | None -> Alcotest.fail "no RESTORE reply");
  Alcotest.(check int) "live state wound back to the saved fingerprint" fp
    (Image.aspace_fingerprint
       ~prog:(Testbed.base_version Testbed.Httpd).P.prog
       (K.aspace (Manager.root_proc m)))

let test_ctl_save_bad_path () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m)
    (Ctl.Save "/nonexistent-dir/x.mcrimg")
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> !reply <> None);
  match !reply with
  | Some (Error _) -> ()
  | Some (Ok s) -> Alcotest.failf "SAVE to unwritable path answered OK %s" s
  | None -> Alcotest.fail "no reply"

(* {1 Property: save -> restore preserves state and behaviour} *)

let prop_save_restore_identity =
  QCheck.Test.make ~count:4 ~name:"image.save_restore_identity"
    (QCheck.oneofl Testbed.all)
    (fun server ->
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      ignore (Testbed.benchmark kernel server ~scale:2_000 ());
      let path = tmp_image "prop" in
      let img =
        match Manager.save_image m ~path with
        | Error e -> QCheck.Test.fail_reportf "save: %s" e
        | Ok img -> img
      in
      match Timetravel.restore img with
      | Error e -> QCheck.Test.fail_reportf "restore: %s" e
      | Ok (k2, m2, _) ->
          let fp =
            Image.aspace_fingerprint ~prog:(Image.prog img)
              (K.aspace (Manager.root_proc m2))
          in
          if fp <> Image.fingerprint img then
            QCheck.Test.fail_reportf "fingerprint drift: %d <> %d" fp
              (Image.fingerprint img);
          (* the original (released after the save quiesce) and the restored
             copy hold identical state, so the same workload must get
             identical answers from both *)
          let a = Testbed.benchmark kernel server ~scale:2_000 () in
          let b = Testbed.benchmark k2 server ~scale:2_000 () in
          a.Bench_result.requests = b.Bench_result.requests
          && a.Bench_result.errors = b.Bench_result.errors
          && a.Bench_result.bytes = b.Bench_result.bytes)

(* {1 Fleet: migration and standby failover} *)

let test_fleet_migrate () =
  let fleet = Fleet.of_testbed Testbed.Nginx ~n:2 in
  let path = tmp_image "migrate" in
  (match Fleet.migrate_instance fleet 0 ~path with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "replacement carries the shipped state" fp
        (Fleet.image_fingerprint fleet 0));
  Alcotest.(check bool) "migrated instance serves" true (Fleet.healthy fleet 0);
  Fleet.refresh_serving fleet;
  Alcotest.(check int) "both instances back in rotation" 2 (Fleet.serving fleet);
  Alcotest.(check (option int)) "migration counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_migrations_total")

let test_fleet_migrate_unreadable () =
  (* the save succeeds but the bytes never reach the disk: the migration
     must back out with the typed read error, not install the in-memory
     image as if the round-trip had been verified *)
  let fleet = Fleet.of_testbed Testbed.Nginx ~n:2 in
  let fp = Fleet.image_fingerprint fleet 0 in
  let before = Mcr_fleet.Balancer.state (Fleet.balancer fleet) 0 in
  (match Fleet.migrate_instance fleet 0 ~path:"/dev/null" with
  | Ok _ -> Alcotest.fail "migration through /dev/null succeeded"
  | Error e ->
      Alcotest.(check bool) ("typed read error: " ^ e) true
        (contains e (Image.error_to_string (Image.Truncated { section = "header" }))));
  Alcotest.(check bool) "balancer state restored" true
    (Mcr_fleet.Balancer.state (Fleet.balancer fleet) 0 = before);
  Alcotest.(check int) "original instance kept" fp (Fleet.image_fingerprint fleet 0);
  Alcotest.(check bool) "original instance still serves" true (Fleet.healthy fleet 0);
  Alcotest.(check int) "both instances in rotation" 2 (Fleet.serving fleet);
  let counter name = Metrics.find_counter (Fleet.metrics_snapshot fleet) name in
  Alcotest.(check (option int)) "read failure counted" (Some 1)
    (counter "mcr_fleet_migration_read_errors_total");
  Alcotest.(check (option int)) "no migration counted" (Some 0)
    (counter "mcr_fleet_migrations_total")

let test_fleet_standby_failover () =
  let fleet = Fleet.of_testbed Testbed.Httpd ~n:2 in
  let sb =
    match Fleet.arm_standby fleet 1 with
    | Error e -> Alcotest.fail e
    | Ok sb -> sb
  in
  (* arming is non-disruptive: the primary keeps serving afterwards *)
  Alcotest.(check bool) "primary serves after arming" true (Fleet.healthy fleet 1);
  (match Fleet.failover_instance fleet 0 sb with
  | Ok _ -> Alcotest.fail "standby for instance 1 accepted by instance 0"
  | Error _ -> ());
  (match Fleet.failover_instance fleet 1 sb with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "failover reports the armed fingerprint"
        (Fleet.standby_fingerprint sb) fp;
      Alcotest.(check int) "standby carries the armed state" fp
        (Fleet.image_fingerprint fleet 1));
  Alcotest.(check bool) "standby serves" true (Fleet.healthy fleet 1);
  Alcotest.(check (option int)) "failover counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_failovers_total")

(* {1 Replay: the image written at quiesce re-runs the recorded update} *)

(* A seed whose injected fault fires after the quiescent point (so the
   checkpoint image is still captured) yet forces a rollback. The seed
   rides inside the image's policy text, so the replay re-arms it. *)
let rollback_seed =
  let rec find s =
    if s > 10_000 then Alcotest.fail "no replay-conflict seed below 10000"
    else
      let f = Fault.of_seed s in
      if Fault.fires f Fault.Replay_conflict || Fault.fires f Fault.Transfer_conflict
      then s
      else find (s + 1)
  in
  lazy (find 1)

let written_image dir =
  match Sys.readdir dir with
  | [| file |] -> Filename.concat dir file
  | files -> Alcotest.failf "expected one image in %s, found %d" dir (Array.length files)

let test_replay_reproduces_rollback () =
  let dir = tmp_dir "replay_rb" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:2_000 ());
  let policy =
    Policy.default
    |> Policy.with_image_dir (Some dir)
    |> Policy.with_fault_seed (Some (Lazy.force rollback_seed))
  in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Httpd) in
  Alcotest.(check bool) "injected fault rolled the update back" false
    report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a rollback" false
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run reproduces reason and stage" true
        v.Timetravel.v_reproduced

let test_replay_reproduces_commit () =
  let dir = tmp_dir "replay_ok" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Vsftpd in
  ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:2_000 ());
  let policy = Policy.default |> Policy.with_image_dir (Some dir) in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "update committed" true report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a commit" true
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run commits too" true
        v.Timetravel.v_reproduced

(* Policy text is outside input: a value the builders reject must come back
   as [Error] from [of_kv] and from the replay, never as an exception from
   deep in the update pipeline. *)
let test_replay_rejects_bad_policy () =
  List.iter
    (fun kv ->
      match Policy.of_kv kv with
      | Ok _ -> Alcotest.failf "of_kv %S accepted" kv
      | Error _ -> ())
    [
      "transfer_workers=0";
      "precopy_max_rounds=0";
      "precopy_threshold_words=-1";
      "retries=-1";
      "drain_ns=-1";
      "slo_downtime_ns=0";
      "slo_total_ns=-5";
      "retries=x";
    ];
  let dir = tmp_dir "replay_badpol" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Vsftpd in
  ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:500 ());
  let policy = Policy.default |> Policy.with_image_dir (Some dir) in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "update committed" true report.Manager.success;
  let enc =
    match Image.read ~path:(written_image dir) with
    | Ok img -> Image.encode img
    | Error e -> Alcotest.fail (Image.error_to_string e)
  in
  let sections = split_sections enc in
  let resealed =
    seal ~count:(List.length sections)
      (List.map
         (fun (tag, name, payload) ->
           if tag = "POLI" then (tag, name, "transfer_workers=0") else (tag, name, payload))
         sections)
  in
  Alcotest.(check bool) "image carries a POLI section" true
    (List.exists (fun (tag, _, _) -> tag = "POLI") sections);
  match Image.decode resealed with
  | Error e -> Alcotest.fail (Image.error_to_string e)
  | Ok img -> (
      match Timetravel.replay img with
      | Ok _ -> Alcotest.fail "replay ran under a policy of_kv must reject"
      | Error e -> Alcotest.(check bool) ("error names the policy: " ^ e) true (contains e "policy"))

let test_replay_requires_flight () =
  (* a manually saved image (no update attempt) has nothing to replay *)
  let _k, _m, _path, img = loaded_save Testbed.Httpd "noflight" in
  match Timetravel.replay img with
  | Ok _ -> Alcotest.fail "replay of a flightless image succeeded"
  | Error e -> Alcotest.(check bool) "error says why" true (contains e "flight")

let () =
  Alcotest.run "image"
    [
      ( "codec",
        [
          Alcotest.test_case "save -> read round-trip" `Quick test_roundtrip;
          Alcotest.test_case "layout names sections" `Quick test_layout_names_sections;
          Alcotest.test_case "corruption goldens" `Quick test_corruption_goldens;
          Alcotest.test_case "unknown section skipped" `Quick test_unknown_section_skipped;
          Alcotest.test_case "oversized length fields" `Quick test_oversized_lengths;
          Alcotest.test_case "encode golden per server" `Quick test_encode_golden;
          Alcotest.test_case "fingerprint golden per server" `Quick test_fingerprint_golden;
          Alcotest.test_case "v1 image refused" `Quick test_v1_refused;
          Alcotest.test_case "region shapes refused" `Quick test_region_shapes_refused;
          Alcotest.test_case "u64 field round-trips" `Quick test_u64_field_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_total;
        ] );
      ( "restore",
        [
          Alcotest.test_case "nginx under load restores and updates" `Quick
            test_restore_under_load;
          Alcotest.test_case "wrong program refused" `Quick
            test_install_refuses_wrong_program;
          QCheck_alcotest.to_alcotest prop_save_restore_identity;
          Alcotest.test_case "sparse round-trip per server" `Quick test_sparse_roundtrip;
          Alcotest.test_case "omitted pages zeroed over a loaded instance" `Quick
            test_restore_zeroes_omitted_pages;
          Alcotest.test_case "zero-frame pages stay shared" `Quick test_restore_keeps_zero_frame;
          Alcotest.test_case "corrupt heap tags refused" `Quick test_corrupt_heap_tags_refused;
        ] );
      ( "ctl",
        [
          Alcotest.test_case "SAVE/RESTORE over the socket" `Quick test_ctl_save_restore;
          Alcotest.test_case "SAVE to unwritable path errs" `Quick test_ctl_save_bad_path;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "migrate carries state across kernels" `Quick
            test_fleet_migrate;
          Alcotest.test_case "migrate through unreadable path backs out" `Quick
            test_fleet_migrate_unreadable;
          Alcotest.test_case "standby failover" `Quick test_fleet_standby_failover;
        ] );
      ( "replay",
        [
          Alcotest.test_case "rollback reproduced offline" `Quick
            test_replay_reproduces_rollback;
          Alcotest.test_case "commit reproduced offline" `Quick
            test_replay_reproduces_commit;
          Alcotest.test_case "flightless image refused" `Quick test_replay_requires_flight;
          Alcotest.test_case "bad policy text refused" `Quick test_replay_rejects_bad_policy;
        ] );
    ]
