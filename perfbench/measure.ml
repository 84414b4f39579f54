(* Host clocks, GC counters and order statistics. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Allocation and collection counters of the whole process (all
   domains), as [Gc.quick_stat] reports them. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* Words allocated: minor-heap words plus words allocated directly on
   the major heap (promotions are already counted as minor words). *)
let allocated d = d.minor_words +. d.major_words -. d.promoted_words
let direct_major d = d.major_words -. d.promoted_words

(* Words allocated by [f] on the calling domain, for single-domain
   sections: minor words plus direct major allocation. *)
let alloc_of f =
  let a = gc () in
  let r = f () in
  let d = gc_diff a (gc ()) in
  (r, allocated d, direct_major d)

let peak_heap_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = percentile (sorted_copy a) 50.0

(* The tail of an ascending array: the highest percentile that leaves
   at least ten samples beyond it (the eleventh-largest sample), and that
   percentile.  With ten samples or fewer no percentile qualifies; the
   maximum (percentile 100) stands in. *)
let tail sorted =
  let n = Array.length sorted in
  if n <= 10 then (100.0, sorted.(n - 1))
  else (100.0 *. float (n - 10) /. float n, sorted.(n - 11))

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b
