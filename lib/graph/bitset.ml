type t = { words : int array; capacity : int }

let bits_per_word = 63
(* OCaml ints are 63-bit on 64-bit platforms; using 63 bits per word keeps
   the implementation portable without Int64 boxing. *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n / bits_per_word) + 1) 0; capacity = n }

let capacity t = t.capacity

let check t i = if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of bounds"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Branch-free SWAR popcount for a 63-bit word (bit 62 is the sign bit,
   so [lsr], never [asr]).  The pair and nibble masks stop below bit 62:
   the lone top bit counts itself in the first step, and its nibble and
   byte sums stay far below their field widths.  The multiply gathers
   the byte counts into bits 56..62. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t =
  let n = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    n := !n + popcount t.words.(w)
  done;
  !n

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Index of the lowest set bit of a nonzero word: six halvings. *)
let lowest_bit x =
  let x = ref x and n = ref 0 in
  if !x land 0xffff_ffff = 0 then (n := 32; x := !x lsr 32);
  if !x land 0xffff = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xff = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xf = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then !n + 1 else !n

(* Each word is read once, so [f] may mutate the set: it sees the word
   as it was when iteration reached it. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let equal a b = a.capacity = b.capacity && Array.for_all2 ( = ) a.words b.words

let subset a b =
  same_capacity a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok
