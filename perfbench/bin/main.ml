(* The ExpFinder benchmark.

   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see [Perfbench.Stream.configs]) for S seconds on
   inputs generated from seed N, checks every answer against the
   sequential oracle, and prints a report whose last line is one JSON
   object: end-to-end metrics with [--trace 0], per-layer metrics with
   [--trace 1].  Run from the repository root; scratch files (the
   server socket, the span dump) go under perfbench/out/. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

(* A seed kept out of tuning, for confirming later claims. *)
let held_out_seed = 4242

let out_dir = Filename.concat "perfbench" "out"

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* The commit of the checkout, when it is a git work tree. *)
let commit () =
  let read path = try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with Some c -> c | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> fail "unexpected argument %S" a)
    usage;
  let config =
    match Stream.config_of_name !workload with
    | Some c -> c
    | None ->
      fail "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun (c : Stream.config) -> c.name) Stream.configs))
  in
  let seed = match !seed with Some n -> n | None -> fail "--seed is required" in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  (* Each of these changes what the program does (differential checks,
     telemetry, query logging, domain counts...). *)
  (match
     Array.to_list (Unix.environment ())
     |> List.filter (String.starts_with ~prefix:"EXPFINDER_")
   with
  | [] -> ()
  | set -> fail "refusing to run with %s set" (String.concat ", " set));
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* A server that went away fails the op in flight instead of killing the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = Filename.concat out_dir (Printf.sprintf "%s-%d.sock" config.name (Unix.getpid ())) in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s commit=%s \
     held_out_seed=%d\n"
    config.name seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) held_out_seed;
  Printf.printf "config: %s\n%!" (Stream.describe config);
  let t0 = Unix.gettimeofday () in
  let stream = Stream.generate config ~seed ~seconds:!seconds in
  Printf.printf "stream: %d ops, %d patterns, generated in %.2fs\n%!" (Array.length stream.ops)
    (Array.length stream.patterns)
    (Unix.gettimeofday () -. t0);
  let result =
    if !trace = 0 then Bench.run_untraced stream ~seconds:(float_of_int !seconds) ~socket
    else
      let spans_file =
        Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" config.name seed)
      in
      Bench.run_traced stream ~seconds:(float_of_int !seconds) ~socket ~spans_file
  in
  List.iter
    (fun (m : Bench.metric) -> Printf.printf "  %-36s %14.3f %s\n" m.name m.value m.unit_)
    result.metrics;
  print_endline (Bench.json_of_result result)
