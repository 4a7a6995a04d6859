(* In-memory spans recorded around the benchmark's own calls into each
   layer of the system.  A span has a name ("layer.operation"), start and
   end on the monotonic clock, the span that caused it, and the id of the
   circuit, request or cell it belongs to.  Recording is off unless the
   run is traced; the spans stay in memory and are summarised into a
   ledger at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  rid : int;  (** circuit / request / cell id *)
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next = ref 0
let open_ : int list ref = ref []

let reset () =
  spans := [];
  next := 0;
  open_ := []

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let current () = match !open_ with p :: _ -> p | [] -> -1

(* Record a span measured elsewhere (e.g. inside a pool task, or a phase
   read from a timings record). *)
let add ?(parent = current ()) ~rid name t0 t1 =
  if !on then begin
    let id = !next in
    incr next;
    spans := { id; parent; rid; name; t0; t1 } :: !spans;
    id
  end
  else -1

(* Time [f]; when tracing, record it as a span under the innermost open
   span.  Returns the result, the duration and the span id (-1 when not
   tracing) so children measured after the fact can be attached. *)
let measure ~rid name f =
  let id =
    if !on then begin
      let id = !next in
      incr next;
      id
    end
    else -1
  in
  let parent = current () in
  if id >= 0 then open_ := id :: !open_;
  let t0 = Util.now () in
  let close () =
    let t1 = Util.now () in
    if id >= 0 then begin
      open_ := List.tl !open_;
      spans := { id; parent; rid; name; t0; t1 } :: !spans
    end;
    t1 -. t0
  in
  match f () with
  | r -> (r, close (), id)
  | exception e ->
      ignore (close ());
      raise e

let timed ~rid name f =
  let r, dt, _ = measure ~rid name f in
  (r, dt)

let span ~rid name f = fst (timed ~rid name f)
let dur s = s.t1 -. s.t0
let named name = List.filter (fun s -> s.name = name) !spans

let durations ?(ids = fun _ -> true) name =
  List.filter_map
    (fun s -> if s.name = name && ids s.rid then Some (dur s) else None)
    !spans

(* Cost of one span on this host, so a traced run can state how much of
   its measured time the instrument itself took. *)
let per_span_s () =
  let saved_on = !on and saved = !spans and saved_next = !next in
  on := true;
  let n = 20_000 in
  let (), t = Util.time (fun () -> for _ = 1 to n do span ~rid:0 "x.y" ignore done) in
  on := saved_on;
  spans := saved;
  next := saved_next;
  t /. Util.fi n

(* The ledger of one measured window: each layer's self time (span
   duration minus the part covered by its child spans), and the
   unaccounted remainder — the window's capacity ([lanes] concurrent
   callers or domains times its length) minus the time covered by root
   spans. *)
let ledger ~title ~window ~lanes =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 16 in
  let roots = ref 0.0 in
  List.iter
    (fun s ->
      if s.parent < 0 then roots := !roots +. dur s;
      let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let l = layer s.name in
      Hashtbl.replace self l (own +. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
    !spans;
  let capacity = window *. Util.fi lanes in
  let unaccounted = capacity -. !roots in
  let rows =
    Hashtbl.fold (fun l t acc -> (l, t) :: acc) self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let line (l, t) =
    Printf.sprintf "  %-12s %10.4f s  %6.2f %%" l t (100.0 *. t /. capacity)
  in
  let lines =
    Printf.sprintf "ledger %s: window %.3f s x %d lane(s), %d spans" title
      window lanes (List.length !spans)
    :: List.map line rows
    @ [ line ("unaccounted", unaccounted) ]
  in
  (lines, unaccounted /. capacity)
