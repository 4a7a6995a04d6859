(* Seeded inputs.  Every circuit a run uses is derived from the run seed
   and its position in a fixed size schedule, so two seeds give circuits
   of the same sizes and shapes but different structure. *)

(* Table II's IWLS'91 shapes: name, flip-flops, gates, inputs, outputs
   (the parameters Iwls.suite uses). *)
let table2 =
  [
    ("s298", 14, 119, 3, 6);
    ("s344", 15, 160, 9, 11);
    ("s420", 16, 218, 18, 1);
    ("s526", 21, 193, 3, 6);
    ("s641", 19, 379, 35, 24);
    ("s838", 32, 446, 34, 1);
    ("s1423", 74, 657, 17, 5);
    ("s5378", 164, 2779, 35, 49);
  ]

let shaped ~seed (name, ffs, gates, ins, outs) =
  Iwls.synth ~name ~ffs ~gates ~ins ~outs ~seed

(* A generic IWLS-like circuit of about [gates] gates. *)
let sized ~seed ~name gates =
  shaped ~seed (name, max 4 (gates / 10), gates, 3 + (gates / 100), 2 + (gates / 150))

(* About 16k gates once generated (the "large" size class). *)
let large ~seed = shaped ~seed ("big", 820, 14000, 40, 50)

(* A text split into literal pieces and renameable net tokens
   ([pi%d]/[lq%d]/[n%d] internal nets and the model name), so that a
   renamed, isomorphic variant is one concatenation. *)
type template = { pieces : string array; renamed : bool array }

let template blif =
  let pieces = ref [] and flags = ref [] in
  let push s f =
    pieces := s :: !pieces;
    flags := f :: !flags
  in
  let digits p tok =
    let lp = String.length p and lt = String.length tok in
    lt > lp
    && String.sub tok 0 lp = p
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub tok lp (lt - lp))
  in
  let n = String.length blif in
  let is_ws c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  let i = ref 0 and lit = Buffer.create 64 and prev = ref "" in
  while !i < n do
    if is_ws blif.[!i] then begin
      Buffer.add_char lit blif.[!i];
      incr i
    end
    else begin
      let j = ref !i in
      while !j < n && not (is_ws blif.[!j]) do
        incr j
      done;
      let tok = String.sub blif !i (!j - !i) in
      if !prev = ".model" || digits "pi" tok || digits "lq" tok || digits "n" tok
      then begin
        push (Buffer.contents lit) false;
        Buffer.clear lit;
        push tok true
      end
      else Buffer.add_string lit tok;
      prev := tok;
      i := !j
    end
  done;
  push (Buffer.contents lit) false;
  { pieces = Array.of_list (List.rev !pieces); renamed = Array.of_list (List.rev !flags) }

let rename t suffix =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun k s ->
      if t.renamed.(k) then begin
        Buffer.add_string b "r";
        Buffer.add_string b suffix;
        Buffer.add_char b '_'
      end;
      Buffer.add_string b s)
    t.pieces;
  Buffer.contents b

let json_string s = Obs.Json.to_string (Obs.Json.Str s)
