(* Processor time.

   The kernel charges a thread only for the time it actually ran: time
   spent waiting for a processor, and time the hypervisor gave the
   processor to another guest (steal, left out under paravirtualised
   time accounting), are not charged.  On a shared host the wall-clock
   time of a request swings with the neighbours' load; its processor
   time does not, so the benchmark's gated timings are processor time.
   Wall-clock figures are still printed in the report lines. *)

(* This process's processor time so far (user + system, every thread),
   in microseconds.  [getrusage] brings the calling thread's runtime up
   to date before it reads it. *)
let self_us () =
  let t = Unix.times () in
  1e6 *. (t.tms_utime +. t.tms_stime)

(* The main thread of another process, read through /proc.  The kernel
   updates a thread's runtime there only when it stops running, so
   [settled_us] waits until the thread sleeps before reading it. *)
type thread = { stat : Unix.file_descr; schedstat : Unix.file_descr; buf : Bytes.t }

let open_thread pid =
  let file name = Unix.openfile (Printf.sprintf "/proc/%d/task/%d/%s" pid pid name) [ O_RDONLY ] 0 in
  let stat = file "stat" in
  match file "schedstat" with
  | schedstat -> { stat; schedstat; buf = Bytes.create 4096 }
  | exception e ->
    Unix.close stat;
    raise e

let close_thread t =
  Unix.close t.stat;
  Unix.close t.schedstat

(* /proc files are regenerated on every read from offset 0. *)
let reread t fd =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  Bytes.sub_string t.buf 0 (Unix.read fd t.buf 0 (Bytes.length t.buf))

(* The state letter follows the parenthesised command name. *)
let running t =
  let s = reread t t.stat in
  match String.rindex_opt s ')' with
  | Some i when i + 2 < String.length s -> s.[i + 2] = 'R'
  | _ -> false

(* The thread's processor time in microseconds, once it has gone back
   to sleep (a server waiting for its next request); [nan] when the
   thread is gone. *)
let settled_us t =
  match
    while running t do
      Unix.sleepf 20e-6
    done;
    Scanf.sscanf (reread t t.schedstat) "%Ld" (fun ns -> Int64.to_float ns /. 1e3)
  with
  | us -> us
  | exception (Unix.Unix_error _ | Scanf.Scan_failure _ | Failure _ | End_of_file) -> Float.nan

(* Host speed.  Processor time still moves with the host: neighbours
   on a shared machine contend for the cores, and the processor time of
   the same run moved by a third between runs half an hour apart, with
   almost no steal.  So the benchmark interleaves a calibration loop
   with the ops it times and scales those timings by [reference_us]
   over the loop's median time in the same run: they are reported as if
   the host ran at the speed where one pass takes [reference_us].  The
   loop does not depend on the program: it chases indices through a
   1 MB array held outside the OCaml heap (which the collector never
   scans), and times only its second walk of the same indices, whose
   lines and pages the first walk has just loaded.  It runs in the
   benchmark process; a served workload's server shares the host's slow
   and fast spells, if not each passing jitter: on [hot_read], between
   such spells, the scaled figures moved by a twentieth where the raw
   ones moved by a third. *)

let reference_us = 100.

let calib_len = 1 lsl 17
let calib_steps = 8000

let calib_array =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout calib_len in
     let rng = Random.State.make [| 42 |] in
     for i = 0 to calib_len - 1 do
       a.{i} <- Random.State.int rng calib_len
     done;
     a)

let chase a =
  let j = ref 0 and acc = ref 0 in
  for i = 1 to calib_steps do
    j := a.{(!j + i) land (calib_len - 1)};
    acc := !acc + (!j land 1023)
  done;
  ignore (Sys.opaque_identity !acc : int)

(* One calibration pass; the processor time of its timed walk in us. *)
let calibrate () =
  let a = Lazy.force calib_array in
  chase a;
  let c0 = self_us () in
  chase a;
  self_us () -. c0

(* Calibration passes take this share of the processor time of the ops
   they are interleaved with. *)
let calibration_share = 0.05

(* Passes taking [calibration_share] of [cpu_us], and at least 20:
   the calibration of a phase timed as one piece, like set-up. *)
let passes_for ~cpu_us =
  let rec go acc total n =
    if n >= 20 && total >= calibration_share *. cpu_us then acc
    else
      let c = calibrate () in
      go (c :: acc) (total +. c) (n + 1)
  in
  go [] 0. 0

(* The factor that turns processor time measured in a run whose passes
   took [samples] into reference time; 1 without samples. *)
let speed_factor = function [] -> 1. | samples -> reference_us /. Stats.median_of samples
