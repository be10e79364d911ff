(* Utility substrate tests: PRNG determinism and distributions, heap
   ordering, bitset algebra, union-find, stats. *)

module Prng = Monpos_util.Prng
module Heap = Monpos_util.Heap
module Bitset = Monpos_util.Bitset
module Stats = Monpos_util.Stats

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done;
  (* pinned SplitMix64 outputs: every seeded topology, traffic matrix
     and bench instance depends on these exact values *)
  let g = Prng.create 42 in
  List.iter
    (fun want -> Alcotest.(check int64) "pinned output" want (Prng.bits64 g))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_range () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    Alcotest.(check bool) "in range" true (0 <= x && x < 10)
  done

let test_prng_uniformity () =
  let g = Prng.create 11 in
  let counts = Array.make 8 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let x = Prng.int g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 8 in
      Alcotest.(check bool) "within 10%" true
        (abs (c - expected) < expected / 10))
    counts

let test_prng_float_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (0.0 <= x && x < 2.5)
  done

let test_prng_pareto_tail () =
  let g = Prng.create 5 in
  let n = 20_000 in
  let above = ref 0 in
  for _ = 1 to n do
    let x = Prng.pareto g ~alpha:1.5 ~xmin:1.0 in
    Alcotest.(check bool) "above xmin" true (x >= 1.0);
    if x > 4.0 then incr above
  done;
  (* P(X > 4) = 4^-1.5 = 0.125; allow generous slack *)
  let frac = float_of_int !above /. float_of_int n in
  Alcotest.(check bool) "tail mass plausible" true (frac > 0.09 && frac < 0.16)

let test_prng_sample_without_replacement () =
  let g = Prng.create 9 in
  for _ = 1 to 100 do
    let xs = Prng.sample_without_replacement g 5 12 in
    Alcotest.(check int) "five draws" 5 (List.length xs);
    let sorted = List.sort_uniq compare xs in
    Alcotest.(check int) "distinct" 5 (List.length sorted);
    List.iter
      (fun x -> Alcotest.(check bool) "in range" true (0 <= x && x < 12))
      xs
  done

let test_prng_shuffle_permutation () =
  let g = Prng.create 13 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_heap_sorts () =
  let h = Heap.create () in
  let g = Prng.create 17 in
  let keys = Array.init 500 (fun _ -> Prng.float g 100.0) in
  Array.iter (fun k -> Heap.push h k k) keys;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _) ->
      out := k :: !out;
      drain ()
  in
  drain ();
  let popped = Array.of_list (List.rev !out) in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Alcotest.(check (array (float 0.0))) "heap sort" sorted popped

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None);
  Heap.push h 1.0 "x";
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_bitset_ops () =
  let a = Bitset.of_list 100 [ 1; 5; 64; 99 ] in
  let b = Bitset.of_list 100 [ 5; 63; 64 ] in
  Alcotest.(check int) "cardinal a" 4 (Bitset.cardinal a);
  Alcotest.(check bool) "mem" true (Bitset.mem a 64);
  Alcotest.(check bool) "not mem" false (Bitset.mem a 63);
  Alcotest.(check int) "inter" 2 (Bitset.inter_cardinal a b);
  let c = Bitset.copy a in
  Bitset.union_into c b;
  Alcotest.(check (list int)) "union" [ 1; 5; 63; 64; 99 ] (Bitset.elements c);
  Bitset.diff_into c b;
  Alcotest.(check (list int)) "diff" [ 1; 99 ] (Bitset.elements c);
  Alcotest.(check bool) "subset" true (Bitset.subset c a);
  Alcotest.(check bool) "not subset" false (Bitset.subset a c)

let test_bitset_fill_clear () =
  let s = Bitset.create 70 in
  Bitset.fill s;
  Alcotest.(check int) "full" 70 (Bitset.cardinal s);
  Bitset.clear s;
  Alcotest.(check bool) "empty" true (Bitset.is_empty s)

let test_bitset_word_boundary () =
  let s = Bitset.create 64 in
  Bitset.add s 62;
  Bitset.add s 63;
  Alcotest.(check (list int)) "boundary" [ 62; 63 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check (list int)) "removed" [ 62 ] (Bitset.elements s)

let test_stats () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Stats.sum xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum xs);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.maximum xs);
  Alcotest.(check (float 1e-9)) "p50" 2.5 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 1.25) (Stats.stddev xs)

let test_table_render () =
  let s =
    Monpos_util.Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  Alcotest.(check bool) "pads short rows" true
    (List.length (String.split_on_char '\n' s) = 5)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng int range" `Quick test_prng_int_range;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng pareto tail" `Quick test_prng_pareto_tail;
    Alcotest.test_case "prng sampling" `Quick test_prng_sample_without_replacement;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "bitset ops" `Quick test_bitset_ops;
    Alcotest.test_case "bitset fill/clear" `Quick test_bitset_fill_clear;
    Alcotest.test_case "bitset word boundary" `Quick test_bitset_word_boundary;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]
