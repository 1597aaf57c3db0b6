(* Tests for Mcr_vmem: addresses, regions, address spaces, soft-dirty bits. *)

open Mcr_vmem

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_alignment () =
  Alcotest.(check bool) "0 aligned" true (Addr.is_aligned 0);
  Alcotest.(check bool) "8 aligned" true (Addr.is_aligned 8);
  Alcotest.(check bool) "4 unaligned" false (Addr.is_aligned 4);
  Alcotest.(check int) "align_up 1" 8 (Addr.align_up 1);
  Alcotest.(check int) "align_up 8" 8 (Addr.align_up 8)

let test_addr_pages () =
  Alcotest.(check int) "page_of 0" 0 (Addr.page_of 0);
  Alcotest.(check int) "page_of 4096" 1 (Addr.page_of 4096);
  Alcotest.(check int) "page_base" 4096 (Addr.page_base 4100);
  Alcotest.(check int) "page_offset" 4 (Addr.page_offset 4100);
  Alcotest.(check int) "word_index" 1 (Addr.word_index 4104)

let test_addr_arith () =
  Alcotest.(check int) "add" 108 (Addr.add 100 8);
  Alcotest.(check int) "add_words" 116 (Addr.add_words 100 2)

let prop_align_up_idempotent =
  QCheck.Test.make ~name:"align_up is idempotent and aligned" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun a ->
      let u = Addr.align_up a in
      Addr.is_aligned u && Addr.align_up u = u && u >= a && u - a < Addr.word_size)

(* ------------------------------------------------------------------ *)
(* Region *)

let region base size kind = { Region.base; size; kind; name = "r" }

let test_region_contains () =
  let r = region 4096 8192 Region.Heap in
  Alcotest.(check bool) "base in" true (Region.contains r 4096);
  Alcotest.(check bool) "mid in" true (Region.contains r 8000);
  Alcotest.(check bool) "limit out" false (Region.contains r (4096 + 8192));
  Alcotest.(check bool) "below out" false (Region.contains r 4095)

let test_region_overlaps () =
  let r = region 4096 4096 Region.Static in
  Alcotest.(check bool) "exact overlap" true (Region.overlaps r ~base:4096 ~size:4096);
  Alcotest.(check bool) "partial overlap" true (Region.overlaps r ~base:8000 ~size:4096);
  Alcotest.(check bool) "adjacent above" false (Region.overlaps r ~base:8192 ~size:4096);
  Alcotest.(check bool) "adjacent below" false (Region.overlaps r ~base:0 ~size:4096)

(* ------------------------------------------------------------------ *)
(* Aspace mapping *)

let test_map_read_write () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 42;
  Alcotest.(check int) "read back" 42 (Aspace.read_word sp base);
  Alcotest.(check int) "zero init" 0 (Aspace.read_word sp (Addr.add_words base 1))

let test_map_fixed () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Fixed 0x10000) ~size:4096 Region.Mmap in
  Alcotest.(check int) "fixed placement honored" 0x10000 base

let test_map_fixed_overlap_rejected () =
  let sp = Aspace.create () in
  let _ = Aspace.map sp (Aspace.Fixed 0x10000) ~size:8192 Region.Mmap in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Aspace.map: fixed mapping 0x11000+4096 overlaps") (fun () ->
      ignore (Aspace.map sp (Aspace.Fixed 0x11000) ~size:4096 Region.Mmap))

let test_map_near_no_overlap () =
  let sp = Aspace.create () in
  let a = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  let b = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Alcotest.(check bool) "distinct mappings" true (a <> b);
  Alcotest.(check int) "two regions" 2 (List.length (Aspace.regions sp))

let test_unmap () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.unmap sp base;
  Alcotest.(check int) "no regions" 0 (List.length (Aspace.regions sp));
  Alcotest.check_raises "fault after unmap" (Aspace.Fault base) (fun () ->
      ignore (Aspace.read_word sp base))

let test_fault_on_unmapped () =
  let sp = Aspace.create () in
  Alcotest.check_raises "unmapped faults" (Aspace.Fault 0x5000) (fun () ->
      ignore (Aspace.read_word sp 0x5000))

let test_fault_on_unaligned () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Alcotest.check_raises "unaligned faults" (Aspace.Fault (base + 3)) (fun () ->
      ignore (Aspace.read_word sp (base + 3)))

let test_null_never_mapped () =
  let sp = Aspace.create () in
  Alcotest.(check bool) "null not mapped" false (Aspace.is_mapped_word sp Addr.null)

let test_find_region () =
  let sp = Aspace.create () in
  let base = Aspace.map sp ~name:"globals" (Aspace.Near Region.Static) ~size:8192 Region.Static in
  (match Aspace.find_region sp (Addr.add base 4100) with
  | Some r ->
      Alcotest.(check string) "name" "globals" r.Region.name;
      Alcotest.(check bool) "kind" true (r.Region.kind = Region.Static)
  | None -> Alcotest.fail "region not found");
  Alcotest.(check bool) "outside" true (Aspace.find_region sp 0x100 = None)

let test_layout_bias_shifts_placement () =
  let a = Aspace.create () in
  let b = Aspace.create ~layout_bias:16 () in
  let ba = Aspace.map a (Aspace.Near Region.Static) ~size:4096 Region.Static in
  let bb = Aspace.map b (Aspace.Near Region.Static) ~size:4096 Region.Static in
  Alcotest.(check int) "bias in pages" (16 * Addr.page_size) (bb - ba)

(* ------------------------------------------------------------------ *)
(* Soft-dirty tracking *)

let test_soft_dirty_basics () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check (list int)) "clean after clear" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Aspace.write_word sp (Addr.add base 4096) 1;
  Alcotest.(check (list int)) "second page dirty" [ base + 4096 ] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Alcotest.(check bool) "first page clean" false (Aspace.epoch_page_dirty sp ~name:"startup" base)

let test_soft_dirty_untracked_write () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.write_word_untracked sp base 7;
  Alcotest.(check int) "value written" 7 (Aspace.read_word sp base);
  Alcotest.(check (list int)) "still clean" [] (Aspace.epoch_dirty_pages sp ~name:"startup")

let test_soft_dirty_epoch () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 1;
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check (list int)) "clear resets" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Aspace.write_word sp base 2;
  Alcotest.(check (list int)) "re-dirty" [ Addr.page_base base ] (Aspace.epoch_dirty_pages sp ~name:"startup")

let test_reads_do_not_dirty () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  ignore (Aspace.read_word sp base);
  Alcotest.(check (list int)) "reads keep pages clean" [] (Aspace.epoch_dirty_pages sp ~name:"startup")

(* ------------------------------------------------------------------ *)
(* Clone and cross-space copy *)

let test_clone_shares_frames () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 99;
  let child = Aspace.clone sp in
  Alcotest.(check bool) "child references the parent's frame" true
    (Aspace.same_frame sp base child base);
  Alcotest.(check int) "child sees value" 99 (Aspace.read_word child base);
  Aspace.write_word child base 1;
  Alcotest.(check bool) "a store gives the child a private frame" false
    (Aspace.same_frame sp base child base);
  Alcotest.(check int) "parent unaffected" 99 (Aspace.read_word sp base);
  Aspace.write_word sp base 2;
  Alcotest.(check int) "child unaffected" 1 (Aspace.read_word child base)

let test_map_is_demand_zero () =
  let a = Aspace.create () and b = Aspace.create () in
  let pa = Aspace.map a (Aspace.Fixed 0x10000) ~size:(2 * 4096) Region.Heap in
  let pb = Aspace.map b (Aspace.Fixed 0x20000) ~size:4096 Region.Heap in
  Alcotest.(check bool) "untouched pages of two spaces share the zero frame" true
    (Aspace.same_frame a pa b pb);
  Alcotest.(check int) "fresh pages are resident" (2 * 4096) (Aspace.resident_bytes a);
  Alcotest.(check int) "but untouched" 0 (Aspace.touched_bytes a);
  Aspace.fill_words a (Addr.add_words pa 510) ~words:4 7;
  Alcotest.(check bool) "a store gives the page a private frame" false
    (Aspace.same_frame a pa b pb);
  Alcotest.(check bool) "both pages the fill reached" false
    (Aspace.same_frame a (Addr.add pa 4096) b pb);
  Alcotest.(check int) "fill landed" 7 (Aspace.read_word a (Addr.add_words pa 511));
  Alcotest.(check int) "other spaces still read zero" 0 (Aspace.read_word b (Addr.add_words pb 511));
  Alcotest.(check int) "one write per word" 4 (Aspace.write_seq a);
  Alcotest.(check int) "touched pages" (2 * 4096) (Aspace.touched_bytes a)

let test_page_is_zero () =
  let a = Aspace.create () and b = Aspace.create () in
  let pa = Aspace.map a (Aspace.Fixed 0x10000) ~size:4096 Region.Heap in
  let pb = Aspace.map b (Aspace.Fixed 0x20000) ~size:4096 Region.Heap in
  Alcotest.(check bool) "a demand-zero page is zero" true (Aspace.page_is_zero a pa);
  Alcotest.(check bool) "asking copies no frame" true (Aspace.same_frame a pa b pb);
  Alcotest.(check int) "nor moves the write sequence" 0 (Aspace.write_seq a);
  let last = Addr.add_words pa (Addr.words_per_page - 1) in
  Aspace.write_word a last 5;
  Alcotest.(check bool) "one nonzero word, at the end of the page" false
    (Aspace.page_is_zero a (Addr.add_words pa 3));
  Aspace.write_word a last 0;
  Alcotest.(check bool) "a private frame of zeros is zero" true (Aspace.page_is_zero a pa);
  let child = Aspace.clone a in
  Aspace.write_word a pa 1;
  Alcotest.(check bool) "the writer's page" false (Aspace.page_is_zero a pa);
  Alcotest.(check bool) "the fork child's page" true (Aspace.page_is_zero child pa);
  Alcotest.check_raises "unmapped page faults" (Aspace.Fault 0x30000) (fun () ->
      ignore (Aspace.page_is_zero a 0x30000))

let test_copy_words_across_spaces () =
  let a = Aspace.create () in
  let b = Aspace.create () in
  let src = Aspace.map a (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  let dst = Aspace.map b (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  for i = 0 to 9 do
    Aspace.write_word a (Addr.add_words src i) (i * 11)
  done;
  Aspace.epoch_reset b ~name:"startup";
  Aspace.copy_words ~src:a src ~dst:b dst ~words:10;
  for i = 0 to 9 do
    Alcotest.(check int) "copied" (i * 11) (Aspace.read_word b (Addr.add_words dst i))
  done;
  Alcotest.(check (list int)) "transfer writes untracked" [] (Aspace.epoch_dirty_pages b ~name:"startup")

(* ------------------------------------------------------------------ *)
(* Named epochs, frame sharing, copy-on-write *)

let test_named_epochs_independent () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.write_word sp base 1;
  Aspace.epoch_reset sp ~name:"a";
  Aspace.write_word sp (Addr.add base 4096) 2;
  Aspace.epoch_reset sp ~name:"b";
  (* page 2 written after a's mark, before b's *)
  Alcotest.(check bool) "dirty in a" true
    (Aspace.epoch_page_dirty sp ~name:"a" (Addr.add base 4096));
  Alcotest.(check bool) "clean in b" false
    (Aspace.epoch_page_dirty sp ~name:"b" (Addr.add base 4096));
  Alcotest.(check bool) "page 1 clean in both" false
    (Aspace.epoch_page_dirty sp ~name:"a" base);
  (* resetting a does not disturb b *)
  Aspace.write_word sp base 3;
  Aspace.epoch_reset sp ~name:"a";
  Alcotest.(check bool) "b saw the write" true (Aspace.epoch_page_dirty sp ~name:"b" base);
  Alcotest.(check bool) "a reset past it" false (Aspace.epoch_page_dirty sp ~name:"a" base);
  Alcotest.(check (list int)) "b's dirty page list" [ Addr.page_base base ]
    (Aspace.epoch_dirty_pages sp ~name:"b")

let test_epoch_never_created_sees_everything () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 1;
  Alcotest.(check (option int)) "find on absent epoch" None
    (Aspace.epoch_find sp ~name:"ghost");
  Alcotest.(check bool) "absent epoch: everything dirty" true
    (Aspace.epoch_page_dirty sp ~name:"ghost" base);
  Aspace.epoch_reset sp ~name:"ghost";
  Alcotest.(check bool) "created by reset" true (Aspace.epoch_find sp ~name:"ghost" <> None);
  Aspace.epoch_remove sp ~name:"ghost";
  Alcotest.(check (option int)) "removed" None (Aspace.epoch_find sp ~name:"ghost")

let test_legacy_shims_are_startup_epoch () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.write_word sp base 1;
  Alcotest.(check bool) "shim sees startup epoch" true
    (Aspace.epoch_page_dirty sp ~name:"startup" base);
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check bool) "epoch read agrees" false (Aspace.epoch_page_dirty sp ~name:"startup" base)

let share_setup () =
  let a = Aspace.create () in
  let b = Aspace.create () in
  let src = Aspace.map a (Aspace.Fixed 4096) ~size:4096 Region.Heap in
  let dst = Aspace.map b (Aspace.Fixed 8192) ~size:4096 Region.Heap in
  for i = 0 to Addr.words_per_page - 1 do
    Aspace.write_word a (Addr.add_words src i) (i * 7);
    Aspace.write_word b (Addr.add_words dst i) (i * 7)
  done;
  (a, b, src, dst)

let test_share_page_and_counts () =
  let a, b, src, dst = share_setup () in
  Alcotest.(check bool) "no sharing before" false (Aspace.same_frame a src b dst);
  Aspace.share_page ~src:a src ~dst:b dst;
  Alcotest.(check bool) "one frame after" true (Aspace.same_frame a src b dst);
  Alcotest.(check bool) "dst marked inherited" true (Aspace.page_inherited b dst);
  for i = 0 to Addr.words_per_page - 1 do
    Alcotest.(check int) "content preserved" (i * 7)
      (Aspace.read_word b (Addr.add_words dst i))
  done

let test_share_page_cow_isolates () =
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  (* write through the source: the destination must not see it *)
  Aspace.write_word a src 999;
  Alcotest.(check int) "dst unaffected by src write" 0 (Aspace.read_word b dst);
  Alcotest.(check int) "src sees own write" 999 (Aspace.read_word a src);
  Alcotest.(check bool) "sharing broken by COW" false (Aspace.same_frame a src b dst);
  (* share again, write through the destination this time, untracked *)
  Aspace.share_page ~src:a src ~dst:b dst;
  Aspace.write_word_untracked b (Addr.add_words dst 1) 555;
  Alcotest.(check int) "src unaffected by dst write" 999 (Aspace.read_word a src);
  Alcotest.(check int) "dst sees own write" 555 (Aspace.read_word b (Addr.add_words dst 1))

let test_unshare_page () =
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  Alcotest.(check bool) "unshare copies" true (Aspace.unshare_page b dst);
  Alcotest.(check bool) "private again" false (Aspace.same_frame a src b dst);
  Alcotest.(check int) "content survives unshare" (7 * 3)
    (Aspace.read_word b (Addr.add_words dst 3));
  Alcotest.(check bool) "unshare is idempotent" false (Aspace.unshare_page b dst);
  Alcotest.(check bool) "the source's reference count dropped back" false
    (Aspace.unshare_page a src);
  Alcotest.(check bool) "unmapped page is a no-op" false
    (Aspace.unshare_page b (Addr.add dst (16 * Addr.page_size)))

let test_share_page_rejects_misaligned () =
  let a, b, src, dst = share_setup () in
  Alcotest.check_raises "unaligned src"
    (Invalid_argument "Aspace.share_page: addresses must be page-aligned")
    (fun () -> Aspace.share_page ~src:a (Addr.add src 8) ~dst:b dst)

let test_unmap_shared_releases_ref () =
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  Aspace.unmap b dst;
  Alcotest.(check bool) "src sole owner after unmap" false (Aspace.unshare_page a src)

let test_mark_inherited_survives_tracking () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.mark_inherited sp (Addr.add base 4096) ~words:1;
  Alcotest.(check bool) "tainted" true (Aspace.page_inherited sp (Addr.add base 4096));
  Alcotest.(check bool) "first page untainted" false (Aspace.page_inherited sp base);
  Alcotest.(check (list int)) "taint is not dirtiness" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  (* the taint survives epoch resets — it is not epoch state *)
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check bool) "survives reset" true (Aspace.page_inherited sp (Addr.add base 4096))

let test_resident_bytes () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Near Region.Heap) ~size:10000 Region.Heap);
  (* 10000 rounds to 3 pages *)
  Alcotest.(check int) "rss" (3 * 4096) (Aspace.resident_bytes sp)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write/read word roundtrip" ~count:300
    QCheck.(pair (int_range 0 511) int)
    (fun (word_off, v) ->
      let sp = Aspace.create () in
      let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
      let a = Addr.add_words base word_off in
      Aspace.write_word sp a v;
      Aspace.read_word sp a = v)

let prop_dirty_iff_written =
  QCheck.Test.make ~name:"a page is dirty iff some word on it was written" ~count:100
    QCheck.(small_list (int_range 0 (4 * 512 - 1)))
    (fun offsets ->
      let sp = Aspace.create () in
      let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(4 * 4096) Region.Heap in
      Aspace.epoch_reset sp ~name:"startup";
      List.iter (fun off -> Aspace.write_word sp (Addr.add_words base off) 1) offsets;
      let expected =
        List.sort_uniq compare
          (List.map (fun off -> Addr.page_base (Addr.add_words base off)) offsets)
      in
      Aspace.epoch_dirty_pages sp ~name:"startup" = expected)

(* Property: [fill_words] is one [write_word] per word. Two identical
   worlds — a three-page mapping with some tracked stores spread over two
   epochs, optionally a fork child and a space a page was remapped into —
   see the fill in one and the word loop in the other. Ranges may cross
   pages and run off the mapping's end: both sides must fault at the same
   address after the same stores. Contents, write sequence, per-epoch
   dirty pages and touched bytes must agree, and the fork child and the
   remap target must still hold what they held before. *)

let fill_pages = 3
let fill_base = 0x10000

let prop_fill_words_is_write_loop =
  QCheck.Test.make ~name:"fill_words is one write_word per word" ~count:300
    QCheck.(
      quad
        (small_list (pair (int_bound ((fill_pages * 512) - 1)) small_nat))
        (int_bound ((fill_pages * 512) - 1))
        (int_range 0 1100)
        (triple small_nat bool bool))
    (fun (stores, off, words, (v, fork, remap)) ->
      let world () =
        let a = Aspace.create () in
        ignore (Aspace.map a (Aspace.Fixed fill_base) ~size:(fill_pages * 4096) Region.Heap);
        Aspace.epoch_reset a ~name:"e1";
        List.iteri
          (fun i (o, x) ->
            if i = List.length stores / 2 then Aspace.epoch_reset a ~name:"e2";
            Aspace.write_word a (Addr.add_words fill_base o) x)
          stores;
        let child = if fork then Some (Aspace.clone a) else None in
        let target =
          if remap then begin
            let b = Aspace.create () in
            let d = Aspace.map b (Aspace.Fixed 0x40000) ~size:4096 Region.Heap in
            Aspace.copy_words ~src:a (Addr.add fill_base 4096) ~dst:b d ~words:512;
            Aspace.share_page ~src:a (Addr.add fill_base 4096) ~dst:b d;
            Some b
          end
          else None
        in
        (a, child, target)
      in
      let words_of sp base n = Array.init n (fun i -> Aspace.read_word sp (Addr.add_words base i)) in
      let run fill =
        let a, child, target = world () in
        let before = words_of a fill_base (fill_pages * 512) in
        let start = Addr.add_words fill_base off in
        let fault =
          match fill a start with () -> None | exception Aspace.Fault f -> Some f
        in
        let others_intact =
          Option.fold child ~none:true ~some:(fun c ->
              words_of c fill_base (fill_pages * 512) = before)
          && Option.fold target ~none:true ~some:(fun b ->
                 words_of b 0x40000 512 = Array.sub before 512 512)
        in
        ( fault,
          words_of a fill_base (fill_pages * 512),
          Aspace.write_seq a,
          List.map (fun name -> Aspace.epoch_dirty_pages a ~name) [ "e1"; "e2" ],
          Aspace.touched_bytes a,
          others_intact )
      in
      let bulk = run (fun a start -> Aspace.fill_words a start ~words v) in
      let loop =
        run (fun a start ->
            for i = 0 to words - 1 do
              Aspace.write_word a (Addr.add_words start i) v
            done)
      in
      let _, _, _, _, _, intact = bulk in
      bulk = loop && intact)

(* Property: copy-on-write fork is observably a deep copy. Random operation
   sequences run over a fork tree (clones of clones) and, in lockstep, over a
   model in which every space owns private page arrays. Every space must
   match its model: contents (so no store leaks into another space), write
   sequence, per-epoch dirty page lists (so a parent's store after a clone
   never dirties the child's epoch), inherited taint and touched bytes.
   Fresh mappings all start on the one shared zero frame, so a store or a
   fill into a fresh page that leaked would show up as a nonzero word in
   some other space's fresh page. *)

type mpage = {
  mw : int array;
  mutable mlast : int;
  mutable mtouched : bool;
  mutable minh : bool;
}

type mspace = {
  mpages : (int, mpage) Hashtbl.t;  (* page number -> page *)
  mutable mseq : int;
  mepochs : (string, int) Hashtbl.t;
}

type fork_op =
  | Clone of int
  | Write of int * int * int * int  (* space, region, word offset, value *)
  | Write_untracked of int * int * int * int
  | Copy of bool * (int * int * int) * (int * int * int) * int
      (* tracked; (space, region, offset) source and destination; words *)
  | Share of (int * int * int) * (int * int * int)  (* (space, region, page) *)
  | Unmap of int * int
  | Map of int * int  (* space, region: a fresh demand-zero mapping *)
  | Fill of int * int * int * int * int  (* space, region, word offset, words, value *)
  | Epoch of int * int  (* space, epoch name index *)

let fork_regions = 3
let region_pages = 2
let region_words = region_pages * Addr.words_per_page
let region_base r = (r + 1) * 0x10000
let epoch_names = [| "a"; "b" |]

let pp_fork_op = function
  | Clone i -> Printf.sprintf "clone %d" i
  | Write (i, r, o, v) -> Printf.sprintf "write %d r%d+%d := %d" i r o v
  | Write_untracked (i, r, o, v) -> Printf.sprintf "write_untracked %d r%d+%d := %d" i r o v
  | Copy (tr, (i, r, o), (j, r', o'), n) ->
      Printf.sprintf "copy%s %d r%d+%d -> %d r%d+%d x%d" (if tr then "_tracked" else "") i r o j
        r' o' n
  | Share ((i, r, p), (j, r', p')) -> Printf.sprintf "share %d r%d p%d -> %d r%d p%d" i r p j r' p'
  | Unmap (i, r) -> Printf.sprintf "unmap %d r%d" i r
  | Map (i, r) -> Printf.sprintf "map %d r%d" i r
  | Fill (i, r, o, n, v) -> Printf.sprintf "fill %d r%d+%d x%d := %d" i r o n v
  | Epoch (i, e) -> Printf.sprintf "epoch_reset %d %s" i epoch_names.(e)

let gen_fork_op =
  let open QCheck.Gen in
  let sp = int_bound 7 and reg = int_bound (fork_regions - 1) in
  let off = int_bound (region_words - 1) and page = int_bound (region_pages - 1) in
  frequency
    [
      (2, map (fun i -> Clone i) sp);
      (6, map (fun (i, r, o, v) -> Write (i, r, o, v)) (quad sp reg off small_nat));
      (3, map (fun (i, r, o, v) -> Write_untracked (i, r, o, v)) (quad sp reg off small_nat));
      ( 3,
        map
          (fun (tr, s, d, n) -> Copy (tr, s, d, n))
          (quad bool (triple sp reg off) (triple sp reg off) (int_range 1 600)) );
      (2, map (fun (s, d) -> Share (s, d)) (pair (triple sp reg page) (triple sp reg page)));
      (1, map (fun (i, r) -> Unmap (i, r)) (pair sp reg));
      (1, map (fun (i, r) -> Map (i, r)) (pair sp reg));
      ( 3,
        map
          (fun ((i, r, o), (n, v)) -> Fill (i, r, o, n, v))
          (pair (triple sp reg off) (pair (int_range 1 600) small_nat)) );
      (2, map (fun (i, e) -> Epoch (i, e)) (pair sp (int_bound 1)));
    ]

let prop_fork_isolation =
  QCheck.Test.make ~name:"fork tree is observably a deep copy" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_fork_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_fork_op))
    (fun ops ->
      let root = Aspace.create () in
      let mroot = { mpages = Hashtbl.create 8; mseq = 0; mepochs = Hashtbl.create 2 } in
      for r = 0 to fork_regions - 1 do
        ignore
          (Aspace.map root (Aspace.Fixed (region_base r)) ~size:(region_words * 8) Region.Heap);
        for p = 0 to region_pages - 1 do
          Hashtbl.replace mroot.mpages
            (Addr.page_of (region_base r) + p)
            { mw = Array.make Addr.words_per_page 0; mlast = 0; mtouched = false; minh = false }
        done
      done;
      let spaces = ref [| (root, mroot) |] in
      let space i = !spaces.(i mod Array.length !spaces) in
      let addr r o = Addr.add_words (region_base r) o in
      let mpage m a = Hashtbl.find_opt m.mpages (Addr.page_of a) in
      let mapped m r = mpage m (region_base r) <> None in
      let mset m a v = (Option.get (mpage m a)).mw.(Addr.word_index a) <- v in
      let mget m a = (Option.get (mpage m a)).mw.(Addr.word_index a) in
      let mstamp m a ~tracked =
        let p = Option.get (mpage m a) in
        p.mtouched <- true;
        if tracked then begin
          m.mseq <- m.mseq + 1;
          p.mlast <- m.mseq
        end
      in
      let apply = function
        | Clone i ->
            let a, m = space i in
            let pages = Hashtbl.create 8 in
            Hashtbl.iter
              (fun pn p -> Hashtbl.replace pages pn { p with mw = Array.copy p.mw })
              m.mpages;
            let m' = { mpages = pages; mseq = m.mseq; mepochs = Hashtbl.copy m.mepochs } in
            spaces := Array.append !spaces [| (Aspace.clone a, m') |]
        | Write (i, r, o, v) ->
            let a, m = space i in
            if mapped m r then begin
              Aspace.write_word a (addr r o) v;
              mset m (addr r o) v;
              mstamp m (addr r o) ~tracked:true
            end
        | Write_untracked (i, r, o, v) ->
            let a, m = space i in
            if mapped m r then begin
              Aspace.write_word_untracked a (addr r o) v;
              mset m (addr r o) v;
              mstamp m (addr r o) ~tracked:false
            end
        | Copy (tracked, (i, r, o), (j, r', o'), n) ->
            let (sa, sm), (da, dm) = (space i, space j) in
            let n = min n (min (region_words - o) (region_words - o')) in
            let overlap = sa == da && r = r' && o < o' + n && o' < o + n in
            if mapped sm r && mapped dm r' && not overlap then begin
              (if tracked then Aspace.copy_words_tracked else Aspace.copy_words)
                ~src:sa (addr r o) ~dst:da (addr r' o') ~words:n;
              for k = 0 to n - 1 do
                let d = addr r' (o' + k) in
                mset dm d (mget sm (addr r (o + k)));
                mstamp dm d ~tracked
              done
            end
        | Share ((i, r, p), (j, r', p')) ->
            let (sa, sm), (da, dm) = (space i, space j) in
            if mapped sm r && mapped dm r' then begin
              let s = Addr.add (region_base r) (p * Addr.page_size)
              and d = Addr.add (region_base r') (p' * Addr.page_size) in
              Aspace.share_page ~src:sa s ~dst:da d;
              let sp = Option.get (mpage sm s) and dp = Option.get (mpage dm d) in
              Array.blit sp.mw 0 dp.mw 0 Addr.words_per_page;
              dp.mtouched <- true;
              dp.minh <- true
            end
        | Unmap (i, r) ->
            let a, m = space i in
            if mapped m r then begin
              Aspace.unmap a (region_base r);
              for p = 0 to region_pages - 1 do
                Hashtbl.remove m.mpages (Addr.page_of (region_base r) + p)
              done
            end
        | Map (i, r) ->
            let a, m = space i in
            if not (mapped m r) then begin
              ignore
                (Aspace.map a (Aspace.Fixed (region_base r)) ~size:(region_words * 8) Region.Heap);
              for p = 0 to region_pages - 1 do
                Hashtbl.replace m.mpages
                  (Addr.page_of (region_base r) + p)
                  { mw = Array.make Addr.words_per_page 0; mlast = 0; mtouched = false; minh = false }
              done
            end
        | Fill (i, r, o, n, v) ->
            let a, m = space i in
            let n = min n (region_words - o) in
            if mapped m r then begin
              Aspace.fill_words a (addr r o) ~words:n v;
              for k = 0 to n - 1 do
                mset m (addr r (o + k)) v;
                mstamp m (addr r (o + k)) ~tracked:true
              done
            end
        | Epoch (i, e) ->
            let a, m = space i in
            Aspace.epoch_reset a ~name:epoch_names.(e);
            Hashtbl.replace m.mepochs epoch_names.(e) m.mseq
      in
      List.iter apply ops;
      let check_space k (a, m) =
        let fail fmt = QCheck.Test.fail_reportf ("space %d: " ^^ fmt) k in
        if Aspace.write_seq a <> m.mseq then
          fail "write_seq %d, model %d" (Aspace.write_seq a) m.mseq;
        Hashtbl.iter
          (fun pn p ->
            let base = pn * Addr.page_size in
            Array.iteri
              (fun w v ->
                let got = Aspace.read_word a (Addr.add_words base w) in
                if got <> v then fail "word %#x = %d, model %d" (Addr.add_words base w) got v)
              p.mw;
            if Aspace.page_inherited a base <> p.minh then fail "inherited taint of page %#x" base)
          m.mpages;
        Array.iter
          (fun name ->
            let mark = Option.value (Hashtbl.find_opt m.mepochs name) ~default:0 in
            let expected =
              Hashtbl.fold
                (fun pn p acc -> if p.mlast > mark then (pn * Addr.page_size) :: acc else acc)
                m.mpages []
              |> List.sort compare
            in
            if Aspace.epoch_dirty_pages a ~name <> expected then fail "epoch %s dirty pages" name)
          epoch_names;
        let touched =
          Hashtbl.fold (fun _ p acc -> if p.mtouched then acc + Addr.page_size else acc) m.mpages 0
        in
        if Aspace.touched_bytes a <> touched then fail "touched bytes"
      in
      Array.iteri check_space !spaces;
      true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_vmem"
    [
      ( "addr",
        [
          Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "pages" `Quick test_addr_pages;
          Alcotest.test_case "arithmetic" `Quick test_addr_arith;
          qt prop_align_up_idempotent;
        ] );
      ( "region",
        [
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "overlaps" `Quick test_region_overlaps;
        ] );
      ( "aspace-map",
        [
          Alcotest.test_case "map read write" `Quick test_map_read_write;
          Alcotest.test_case "fixed placement" `Quick test_map_fixed;
          Alcotest.test_case "fixed overlap rejected" `Quick test_map_fixed_overlap_rejected;
          Alcotest.test_case "near placement avoids overlap" `Quick test_map_near_no_overlap;
          Alcotest.test_case "unmap" `Quick test_unmap;
          Alcotest.test_case "fault on unmapped" `Quick test_fault_on_unmapped;
          Alcotest.test_case "fault on unaligned" `Quick test_fault_on_unaligned;
          Alcotest.test_case "null never mapped" `Quick test_null_never_mapped;
          Alcotest.test_case "find region" `Quick test_find_region;
          Alcotest.test_case "layout bias" `Quick test_layout_bias_shifts_placement;
          qt prop_write_read_roundtrip;
        ] );
      ( "soft-dirty",
        [
          Alcotest.test_case "basics" `Quick test_soft_dirty_basics;
          Alcotest.test_case "untracked writes" `Quick test_soft_dirty_untracked_write;
          Alcotest.test_case "epochs" `Quick test_soft_dirty_epoch;
          Alcotest.test_case "reads do not dirty" `Quick test_reads_do_not_dirty;
          qt prop_dirty_iff_written;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "named epochs independent" `Quick test_named_epochs_independent;
          Alcotest.test_case "absent epoch semantics" `Quick
            test_epoch_never_created_sees_everything;
          Alcotest.test_case "legacy shims are the startup epoch" `Quick
            test_legacy_shims_are_startup_epoch;
        ] );
      ( "share-cow",
        [
          Alcotest.test_case "share_page counts and content" `Quick test_share_page_and_counts;
          Alcotest.test_case "COW isolates both sides" `Quick test_share_page_cow_isolates;
          Alcotest.test_case "unshare_page" `Quick test_unshare_page;
          Alcotest.test_case "misaligned share rejected" `Quick
            test_share_page_rejects_misaligned;
          Alcotest.test_case "unmap releases shared ref" `Quick test_unmap_shared_releases_ref;
          Alcotest.test_case "inherited taint" `Quick test_mark_inherited_survives_tracking;
        ] );
      ( "clone-copy",
        [
          Alcotest.test_case "clone shares frames copy-on-write" `Quick test_clone_shares_frames;
          qt prop_fork_isolation;
          qt prop_fill_words_is_write_loop;
          Alcotest.test_case "map is demand-zero" `Quick test_map_is_demand_zero;
          Alcotest.test_case "page_is_zero" `Quick test_page_is_zero;
          Alcotest.test_case "copy words across spaces" `Quick test_copy_words_across_spaces;
          Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
        ] );
    ]
