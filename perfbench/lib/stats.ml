(* Order statistics over latency samples.  Percentiles are handled in
   per-mille integers so that rank arithmetic is exact. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let permille p = int_of_float (Float.round (p *. 10.))

(* 1-based nearest rank of percentile [p] among [n] samples. *)
let rank n p = ((permille p * n) + 999) / 1000

(* Nearest-rank percentile of an ascending array; [nan] when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(max 0 (min (n - 1) (rank n p - 1)))

let median a = percentile a 50.

(* Percentiles the report may quote, highest first. *)
let ladder = [ 99.9; 99.; 90.; 50. ]

(* Samples strictly above percentile [p]'s rank. *)
let beyond n p = n - rank n p

(* The highest percentile of [ladder] that has at least ten of [n]
   samples beyond it; [None] when even the median has fewer. *)
let tail_percentile n = List.find_opt (fun p -> beyond n p >= 10) ladder

let median_of samples = median (sorted samples)
