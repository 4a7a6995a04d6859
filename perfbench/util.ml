(* Shared helpers: the clock, order statistics, process plumbing and the
   record every workload returns. *)

let now = Logic.Clock.monotonic_seconds

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 1]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = percentile 0.5 xs
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then nan else a /. b
let fi = float_of_int

(* Peak resident set of a process, from /proc (Linux). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> fi kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Run [prog args] to completion with stdout/stderr discarded; returns
   the exit code (signals count as failure). *)
let run_quiet prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process prog (Array.of_list (prog :: args)) null null null
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

(* Worker domains of the system under test: at most two, and no more
   than the host has. *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Paths of the system's executables, given on the command line. *)
type exes = { check_exe : string; serve_exe : string; scratch : string }

(* One metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a workload run returns.  [metrics] are the workload's own
   end-to-end metrics under their own names; [e2e] are the values of
   the workload-independent metric slots of BENCHMARK.json; [layer] the
   per-layer metrics it measured (traced runs only). *)
type outcome = {
  workload : string;
  setup_s : float;
  rss_mb : float;
  metrics : metric list;
  e2e : metric list;
  layer : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  signature : (string * string) list;
  ledger : string list;
}

(* Failure bookkeeping shared by the workloads: every checked operation
   is attempted once; a mismatch is recorded with a message. *)
type tally = {
  mutable tried : int;
  mutable bad : int;
  mutable msgs : string list;
}

let tally () = { tried = 0; bad = 0; msgs = [] }

let expect t ok msg =
  t.tried <- t.tried + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    if List.length t.msgs < 20 then t.msgs <- msg () :: t.msgs
  end

(* Seeded RNG derived from the run seed and a stream label, so streams
   are independent of each other and of iteration order elsewhere. *)
let rng seed label = Random.State.make [| seed; Hashtbl.hash label |]
