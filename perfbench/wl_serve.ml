(* Workload "serve": bin/serve.exe as its own process on a Unix socket
   (pool of min(2, nproc) domains), driven by this one process over two
   closed-loop connections — the daemon user.

   - hot: repeats from a warmed pool of 24 small circuits, in shuffled
     blocks of eight: three exact-text (L1) hits with echo on, three
     with echo off, and two renamed, isomorphic (L2) hits with echo off.
     L2 is a quarter of the traffic, so the p50 falls inside the L1
     population and the p90 inside the L2 one, away from both edges.
   - cold: fresh circuits (misses; 30 to 1000 gates on a fixed
     schedule), with every tenth request a typed rejection: malformed
     JSON, a malformed netlist, a false cut (a gate reading a primary
     input) or an expired deadline.

   Cold requests are generated before the clock starts, so the client
   never computes while a hot response waits to be read.  Certificates
   ([cert:true]) are left out on purpose. *)

open Util

type hot = {
  esc : string;  (** the BLIF as a JSON string literal *)
  tmpl : Gen.template;
  mutable full : string;  (** expected response body with echo *)
  mutable terse : string;  (** ... and without *)
}

type cls = L1_echo | L1_terse | L2

type expect_cold = Miss of string (* request BLIF *) | Reject of string

type cold = { line : string; exp : expect_cold }

let hot_sizes = [ 40; 60; 80; 100; 130; 160; 200; 250 ]
(* The classes the miss p50 and p90 fall in are repeated, so each
   percentile sits well inside one size class and rests on many samples. *)
let cold_sizes = [ 30; 60; 100; 150; 250; 250; 250; 400; 600; 1000; 1000 ]

let hot_pool ~seed =
  let rng = rng seed "serve-hot" in
  List.concat_map
    (fun g ->
      List.init 3 (fun k ->
          let c =
            Gen.sized ~seed:(Random.State.bits rng) ~name:(Printf.sprintf "h%d_%d" g k) g
          in
          let text = Blif.to_string c in
          { esc = Gen.json_string text; tmpl = Gen.template text; full = ""; terse = "" }))
    hot_sizes
  |> Array.of_list

let line ~id ?(extra = "") ~echo esc =
  Printf.sprintf "{\"id\":%d,\"blif\":%s,\"echo\":%b%s}\n" id esc echo extra

(* A hot request: the pool entry's exact text, or (L2) a renamed,
   isomorphic variant unique to this request id. *)
let hot_line pool (cls, e) id =
  let h = pool.(e) in
  match cls with
  | L1_echo -> line ~id ~echo:true h.esc
  | L1_terse -> line ~id ~echo:false h.esc
  | L2 -> line ~id ~echo:false (Gen.json_string (Gen.rename h.tmpl (string_of_int id)))

(* The hot request stream: shuffled blocks of 3 x L1-echo, 3 x L1-terse,
   2 x L2. *)
let hot_stream ~seed pool =
  let rng = rng seed "serve-hot-stream" in
  let block = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !block then begin
      let b = [| L1_echo; L1_echo; L1_echo; L1_terse; L1_terse; L1_terse; L2; L2 |] in
      for i = Array.length b - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = b.(i) in
        b.(i) <- b.(j);
        b.(j) <- t
      done;
      block := b;
      pos := 0
    end;
    let c = !block.(!pos) in
    incr pos;
    (c, Random.State.int rng (Array.length pool))

(* A gate reading a primary input: a cut holding it is the paper's
   false cut. *)
let false_cut_gate c =
  let d = c.Circuit.drivers in
  let rec go s =
    if s >= Array.length d then None
    else
      match d.(s) with
      | Circuit.Gate (_, args)
        when List.exists (fun a -> match d.(a) with Circuit.Input _ -> true | _ -> false) args
        ->
          Some s
      | _ -> go (s + 1)
  in
  go 0

let cold_requests ~seed ~count =
  let rng = rng seed "serve-cold" in
  let sizes = Array.of_list cold_sizes in
  let fresh g k =
    Blif.to_string (Gen.sized ~seed:(Random.State.bits rng) ~name:(Printf.sprintf "c%d" k) g)
  in
  Array.init count (fun j ->
      let id = 1_000_000 + j in
      if j mod 10 = 9 then
        match (j / 10) mod 4 with
        | 0 ->
            let l = line ~id ~echo:false (Gen.json_string (fresh 30 j)) in
            { line = String.sub l 0 (String.length l / 2) ^ "\n"; exp = Reject "bad_request" }
        | 1 ->
            {
              line = line ~id ~echo:false (Gen.json_string (".model x\n.inputs a\n.names a b q\n" ^ string_of_int j));
              exp = Reject "invalid_netlist";
            }
        | 2 ->
            let text = fresh 60 j in
            let g = Option.get (false_cut_gate (Blif.of_string text)) in
            {
              line = line ~id ~echo:false ~extra:(Printf.sprintf ",\"cut\":[%d]" g) (Gen.json_string text);
              exp = Reject "invalid_cut";
            }
        | _ ->
            {
              line = line ~id ~echo:false ~extra:",\"deadline_s\":1e-9" (Gen.json_string (fresh 30 j));
              exp = Reject "deadline_exceeded";
            }
      else
        let text = fresh sizes.((j - (j / 10)) mod Array.length sizes) j in
        { line = line ~id ~echo:true (Gen.json_string text); exp = Miss text })

(* --- the socket client ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;
  mutable sent_at : float;
  mutable busy : bool;
}

let chunk = Bytes.create 65536

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done;
  c.sent_at <- now ();
  c.busy <- true

(* Read what is available; return the complete response line, if any. *)
let receive c =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "daemon closed the connection";
  let nl = Bytes.index_from_opt chunk 0 '\n' in
  match nl with
  | Some i when i < k ->
      Buffer.add_subbytes c.acc chunk 0 i;
      let l = Buffer.contents c.acc in
      Buffer.clear c.acc;
      if i + 1 < k then Buffer.add_subbytes c.acc chunk (i + 1) (k - i - 1);
      c.busy <- false;
      Some l
  | _ ->
      Buffer.add_subbytes c.acc chunk 0 k;
      None

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; acc = Buffer.create 65536; sent_at = 0.0; busy = false }

let blocking_call c s =
  send c s;
  let rec wait () = match receive c with Some l -> l | None -> wait () in
  let l = wait () in
  (l, now () -. c.sent_at)

(* --- response inspection (cheap enough for the hot loop) -------------- *)

let find_from s i sub =
  let n = String.length s and k = String.length sub in
  let rec matches i j = j = k || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + k > n then -1 else if matches i 0 then i else go (i + 1) in
  go i

let ok_prefix id = Printf.sprintf "{\"id\":%d,\"status\":\"ok\"," id

(* The body between the status and the cache object: the echoed netlist
   and theorem, or just the circuit statistics. *)
let body resp =
  let p = find_from resp 0 "\"status\":\"ok\"," in
  let q = find_from resp (max 0 (String.length resp - 400)) ",\"cache\":{" in
  if p < 0 || q < 0 then "" else String.sub resp (p + 14) (q - p - 14)

let has_from_end resp sub =
  find_from resp (max 0 (String.length resp - 400)) sub >= 0

let wall_s resp =
  let p = find_from resp (max 0 (String.length resp - 40)) "\"wall_s\":" in
  if p < 0 then nan
  else
    let e = String.index_from resp p '}' in
    float_of_string (String.sub resp (p + 9) (e - p - 9))

let error_code resp =
  let p = find_from resp 0 "\"code\":\"" in
  if p < 0 then "?"
  else
    let e = String.index_from resp (p + 8) '"' in
    String.sub resp (p + 8) (e - p - 8)

(* --- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; path : string }

(* The cache holds 256 entries per level, 32 per shard: enough that the
   hot pool (24 circuits, however unevenly they hash to shards) is never
   evicted by the cold connection's inserts or the L2 texts.  At the
   default 64 it was, and hot requests turned into misses. *)
let start_daemon ~exes ~tag =
  let path = Filename.concat exes.scratch (Printf.sprintf "serve-%d.sock" tag) in
  if Sys.file_exists path then Sys.remove path;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process exes.serve_exe
      [| exes.serve_exe; "--socket"; path; "--jobs"; string_of_int Util.jobs; "--cache"; "256" |]
      null null null
  in
  let deadline = now () +. 20.0 in
  let rec wait () =
    match connect path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if now () > deadline then failwith "serve.exe did not start";
        Unix.sleepf 0.002;
        wait ()
  in
  let c = wait () in
  ({ pid; path }, c)

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  match snd (Unix.waitpid [] d.pid) with Unix.WEXITED 0 -> true | _ -> false

(* Set-up: start the daemon and warm its cache with the hot pool, which
   also records each entry's expected response bodies. *)
let setup ~exes ~tag pool =
  let t0 = now () in
  let d, c = start_daemon ~exes ~tag in
  Array.iteri
    (fun i h ->
      let resp, _ = blocking_call c (line ~id:i ~echo:true h.esc) in
      h.full <- body resp;
      let p = find_from h.full 0 ",\"blif\":" in
      h.terse <- (if p < 0 then "" else String.sub h.full 0 p))
    pool;
  (d, c, now () -. t0)

(* --- measurement -------------------------------------------------------- *)

type sample = { at : float; lat : float; daemon : float }

type stats = {
  mutable hot : (cls * sample) list;
  mutable cold_miss : sample list;
  mutable codes : (string * int) list;
  mutable cold_sent : int;
  mutable exhausted : bool;
  mutable misses_to_check : (string * string) list;  (** request BLIF, response *)
  mutable outcomes : string list;  (** first cold outcomes, newest first *)
  mutable hot_seen : int;  (** hot responses, counted up to 2000 *)
  mutable hot_hits : int;  (** cache hits among them *)
}

let bump_code st code =
  st.codes <-
    (code, 1 + Option.value ~default:0 (List.assoc_opt code st.codes))
    :: List.remove_assoc code st.codes

(* Drive the connections until [seconds] have passed, then drain. *)
let drive ~tally ~pool ~next_hot ~colds ~hot_id ~cold_pos ~seconds ~use_cold hc cc =
  let st =
    {
      hot = [];
      cold_miss = [];
      codes = [];
      cold_sent = 0;
      exhausted = false;
      misses_to_check = [];
      outcomes = [];
      hot_seen = 0;
      hot_hits = 0;
    }
  in
  let hot_req = ref (L1_echo, 0, 0) in
  let send_hot () =
    let cls, e = next_hot () in
    let id = !hot_id in
    incr hot_id;
    hot_req := (cls, e, id);
    send hc (hot_line pool (cls, e) id)
  in
  let cold_cur = ref None in
  let send_cold () =
    if !cold_pos < Array.length colds then begin
      let r = colds.(!cold_pos) in
      incr cold_pos;
      cold_cur := Some r;
      st.cold_sent <- st.cold_sent + 1;
      send cc r.line
    end
    else st.exhausted <- true
  in
  let t_end = now () +. seconds in
  send_hot ();
  if use_cold then send_cold ();
  let on_hot resp =
    let lat = now () -. hc.sent_at in
    let cls, e, id = !hot_req in
    let h = pool.(e) in
    let want = match cls with L1_echo -> h.full | L1_terse | L2 -> h.terse in
    expect tally
      (String.starts_with ~prefix:(ok_prefix id) resp
      && has_from_end resp "\"cache\":{\"hit\":true"
      && body resp = want)
      (fun () ->
        let n = String.length resp in
        Printf.sprintf "hot request %d: unexpected response %s...%s" id
          (String.sub resp 0 (min n 120))
          (String.sub resp (max 0 (n - 200)) (min n 200)));
    if st.hot_seen < 2000 then begin
      st.hot_seen <- st.hot_seen + 1;
      if has_from_end resp "\"cache\":{\"hit\":true" then st.hot_hits <- st.hot_hits + 1
    end;
    st.hot <- (cls, { at = hc.sent_at; lat; daemon = wall_s resp }) :: st.hot
  in
  let on_cold resp =
    let lat = now () -. cc.sent_at in
    match !cold_cur with
    | None -> ()
    | Some r -> (
        if List.length st.outcomes < 40 then
          st.outcomes <-
            (if has_from_end resp "\"cache\":{\"hit\":false" then "miss" else error_code resp)
            :: st.outcomes;
        match r.exp with
        | Miss text ->
            let ok = has_from_end resp "\"cache\":{\"hit\":false" && find_from resp 0 "\"status\":\"ok\"" > 0 in
            expect tally ok (fun () -> "cold request: expected a miss");
            if ok then begin
              st.cold_miss <- { at = cc.sent_at; lat; daemon = wall_s resp } :: st.cold_miss;
              st.misses_to_check <- (text, resp) :: st.misses_to_check
            end
        | Reject code ->
            let got = error_code resp in
            bump_code st got;
            expect tally
              (got = code && find_from resp 0 "\"status\":\"error\"" > 0)
              (fun () -> Printf.sprintf "cold request: expected %s, got %s" code got))
  in
  let rec loop () =
    let fds = List.filter_map (fun c -> if c.busy then Some c.fd else None) [ hc; cc ] in
    if fds <> [] then begin
      let ready, _, _ = Unix.select fds [] [] 1.0 in
      (* a minimum of work, so the self-check's exact counts always
         cover the same requests *)
      let running =
        now () < t_end
        || (use_cold && List.length st.outcomes < 40)
        || st.hot_seen < 2000
      in
      if List.mem hc.fd ready then
        Option.iter
          (fun resp ->
            on_hot resp;
            if running then send_hot ())
          (receive hc);
      if List.mem cc.fd ready then
        Option.iter
          (fun resp ->
            on_cold resp;
            if running then send_cold ())
          (receive cc);
      loop ()
    end
  in
  loop ();
  st

let lat_of xs = List.map (fun s -> s.lat) xs

(* Off the clock: every miss's BLIF parses to the counts of an
   in-process Forward.retime of the request. *)
let check_misses ~tally st =
  List.iter
    (fun (text, resp) ->
      let ok =
        match Obs.Json.member "blif" (Obs.Json.parse resp) with
        | Some (Obs.Json.Str out) ->
            let c = Blif.of_string text in
            let fwd = Blif.of_string (Blif.to_string (Forward.retime c (Cut.maximal c))) in
            let got = Blif.of_string out in
            Circuit.gate_count got = Circuit.gate_count fwd
            && Circuit.flipflop_count got = Circuit.flipflop_count fwd
        | _ -> false
      in
      expect tally ok (fun () -> "miss BLIF does not match Forward.retime"))
    st.misses_to_check

(* In-process replay of the same traffic through Serve.handle_line, and
   the netlist layer's calls on the cold circuits, for the per-layer
   metrics. *)
let replay ~seed ~pool ~colds =
  let t = Serve.create ~jobs:1 ~cache_capacity:4096 () in
  Array.iteri (fun i h -> ignore (Serve.handle_line t (line ~id:i ~echo:true h.esc))) pool;
  let next_hot = hot_stream ~seed pool in
  let by = Hashtbl.create 3 in
  for id = 0 to 3999 do
    let cls, e = next_hot () in
    let s = hot_line pool (cls, e) id in
    let s = String.sub s 0 (String.length s - 1) in
    let name = match cls with L2 -> "serve.handle_l2" | L1_echo | L1_terse -> "serve.handle_l1" in
    let (), dt = Trace.timed ~rid:id name (fun () -> ignore (Serve.handle_line t s)) in
    Hashtbl.replace by name (dt :: Option.value ~default:[] (Hashtbl.find_opt by name))
  done;
  let misses =
    Array.to_list colds
    |> List.filter_map (fun r -> match r.exp with Miss text -> Some (r.line, text) | Reject _ -> None)
    |> List.filteri (fun i _ -> i < 40)
  in
  let miss_t =
    List.mapi
      (fun i (l, _) ->
        snd (Trace.timed ~rid:(2_000_000 + i) "serve.handle_miss" (fun () ->
                 ignore (Serve.handle_line t (String.sub l 0 (String.length l - 1))))))
      misses
  in
  let parse = ref 0.0 and kb = ref 0.0 and fp = ref 0.0 and emit = ref 0.0 and gates = ref 0.0 in
  List.iteri
    (fun i (_, text) ->
      let rid = 3_000_000 + i in
      let c, dt = Trace.timed ~rid "netlist.parse" (fun () -> Blif.of_string text) in
      parse := !parse +. dt;
      kb := !kb +. (fi (String.length text) /. 1024.0);
      gates := !gates +. fi (Circuit.gate_count c);
      let _, dt = Trace.timed ~rid "netlist.fingerprint" (fun () -> Fingerprint.of_circuit c) in
      fp := !fp +. dt;
      let r = Forward.retime c (Cut.maximal c) in
      let _, dt = Trace.timed ~rid "netlist.emit" (fun () -> Blif.to_string r) in
      emit := !emit +. dt)
    misses;
  Serve.shutdown t;
  let med name = median (Option.value ~default:[] (Hashtbl.find_opt by name)) in
  ( med "serve.handle_l1",
    med "serve.handle_l2",
    median miss_t,
    1e6 *. !parse /. !kb,
    1e6 *. !fp /. !gates,
    1e6 *. !emit /. !gates )

let run ~exes ~seed ~seconds ~traced =
  (* a short traced pass still needs enough traffic for every class *)
  let seconds = if traced then Float.max seconds 3.0 else seconds in
  let tally = tally () in
  let pool = hot_pool ~seed in
  (* about four times what this code answers in the window *)
  let colds = cold_requests ~seed ~count:(100 + int_of_float (seconds *. 40.0)) in
  (* set up three times; keep the last daemon *)
  let tag k = (Unix.getpid () * 10) + k in
  let earlier =
    List.init 2 (fun k ->
        let d, c, dt = setup ~exes ~tag:(tag k) pool in
        Unix.close c.fd;
        expect tally (stop_daemon d) (fun () -> "serve.exe did not exit 0 after set-up");
        dt)
  in
  let d, hc, dt = setup ~exes ~tag:(tag 2) pool in
  let setup_s = median (dt :: earlier) in
  let cc = connect d.path in
  let next_hot = hot_stream ~seed pool in
  let hot_id = ref (Array.length pool) and cold_pos = ref 0 in
  (* traced runs first measure the hot connection alone, for the
     head-of-line delta *)
  let alone =
    if traced then
      Some
        (drive ~tally ~pool ~next_hot ~colds ~hot_id ~cold_pos ~seconds:(max 2.0 (seconds /. 4.0))
           ~use_cold:false hc cc)
    else None
  in
  Trace.reset ();
  let t0 = now () in
  let st = drive ~tally ~pool ~next_hot ~colds ~hot_id ~cold_pos ~seconds ~use_cold:true hc cc in
  let window = now () -. t0 in
  let rss = peak_rss_mb d.pid in
  Unix.close hc.fd;
  Unix.close cc.fd;
  expect tally (stop_daemon d) (fun () -> "serve.exe did not drain and exit 0");
  check_misses ~tally st;
  let hot = List.rev st.hot in
  let hot_lat = lat_of (List.map snd hot) in
  let miss_lat = lat_of st.cold_miss in
  let n_resp = List.length hot + st.cold_sent in
  let us x = 1e6 *. x and ms x = 1e3 *. x in
  let metrics =
    [
      m "serve.hit_p50_us" "us" (us (median hot_lat));
      m "serve.hit_p90_us" "us" (us (percentile 0.9 hot_lat));
      m "serve.miss_p50_ms" "ms" (ms (median miss_lat));
      m "serve.miss_p90_ms" "ms" (ms (percentile 0.9 miss_lat));
      m "serve.req_per_s" "1/s" (fi n_resp /. window);
    ]
  in
  let e2e =
    [
      m "throughput_per_s" "1/s" (fi n_resp /. window);
      m "p50_ms" "ms" (ms (median hot_lat));
      m "p90_ms" "ms" (ms (percentile 0.9 hot_lat));
      m "heavy_p50_ms" "ms" (ms (median miss_lat));
      m "heavy_p90_ms" "ms" (ms (percentile 0.9 miss_lat));
    ]
  in
  let layer, ledger =
    if not traced then ([], [])
    else begin
      (* round trips as root spans, the daemon's own wall time inside
         each as its child *)
      List.iteri
        (fun i s ->
          let id = Trace.add ~parent:(-1) ~rid:i "socket.round_trip" s.at (s.at +. s.lat) in
          ignore (Trace.add ~parent:id ~rid:i "serve.daemon" s.at (s.at +. s.daemon)))
        (List.map snd hot @ st.cold_miss);
      let lines, unacc = Trace.ledger ~title:"serve" ~window ~lanes:2 in
      let h_l1, h_l2, h_miss, parse, fp, emit = replay ~seed ~pool ~colds in
      let l1_rt =
        median (List.filter_map (fun (c, s) -> if c = L2 then None else Some s.lat) hot)
      in
      let alone_p90 =
        match alone with Some a -> percentile 0.9 (lat_of (List.map snd a.hot)) | None -> nan
      in
      let n_l2 = List.length (List.filter (fun (c, _) -> c = L2) hot) in
      let n_miss = List.length st.cold_miss in
      let total = fi (List.length hot + n_miss) in
      ( [
          m "netlist.parse_us_per_kb" "us/KB" parse;
          m "netlist.fingerprint_us_per_gate" "us/gate" fp;
          m "netlist.emit_us_per_gate" "us/gate" emit;
          m "serve.handle_l1_us" "us" (us h_l1);
          m "serve.handle_l2_us" "us" (us h_l2);
          m "serve.handle_miss_ms" "ms" (ms h_miss);
          m "serve.socket_overhead_us" "us" (us (l1_rt -. h_l1));
          m "serve.l1_hit_ratio" "ratio" (fi (List.length hot - n_l2) /. total);
          m "serve.l2_hit_ratio" "ratio" (fi n_l2 /. total);
          m "serve.miss_ratio" "ratio" (fi n_miss /. total);
          m "serve.hol_delta_us" "us" (us (percentile 0.9 hot_lat -. alone_p90));
          m "ledger.serve.unaccounted_share" "ratio" unacc;
        ]
        @ List.map
            (fun code ->
              m ("serve.rejects." ^ code) "count"
                (fi (Option.value ~default:0 (List.assoc_opt code st.codes))))
            [ "bad_request"; "invalid_netlist"; "invalid_cut"; "deadline_exceeded" ],
        lines )
    end
  in
  let signature =
    [
      ("serve.first_cold_outcomes", String.concat "," (List.rev st.outcomes));
      ("serve.first_hot_hits", Printf.sprintf "%d of %d" st.hot_hits st.hot_seen);
      ( "serve.warm_bodies",
        Digest.to_hex
          (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun h -> h.full) pool)))) );
    ]
  in
  ( {
      workload = "serve";
      setup_s;
      rss_mb = rss;
      metrics;
      e2e;
      layer;
      attempted = tally.tried;
      failed = tally.bad;
      failures = List.rev tally.msgs;
      signature;
      ledger;
    },
    window,
    st.exhausted )
