(* In-memory span recorder for the traced run.

   A span is opened by the benchmark around one call into a layer's
   public function. Spans are kept in memory and only written out when
   the benchmark ends, so the traced run pays no I/O while it measures.
   The ledger's Prof aggregates of a solver call are attached to that
   call's span as [phases]: they carry totals, not start/end times. *)

module Prof = Kecss_obs.Prof
module Json = Kecss_obs.Json

type phase = { path : string; total_ns : float; calls : int }

type span = {
  id : int;
  name : string;  (* "<layer>.<call>", e.g. "graph.decode" *)
  parent : int;  (* -1 for a pass root *)
  run : int;  (* the pass the span belongs to *)
  start : float;  (* ns *)
  mutable stop : float;
  mutable phases : phase list;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : span list;
  mutable run : int;
}

let create ~enabled = { enabled; spans = []; next = 0; stack = []; run = 0 }
let set_run t run = t.run <- run
let duration s = s.stop -. s.start

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = t.next; name; parent; run = t.run; start = Prof.now_ns ();
        stop = nan; phases = [] }
    in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Prof.now_ns ();
        t.stack <- List.tl t.stack)
      f
  end

(* attach ledger phase aggregates to the innermost open span *)
let attach_phases t phases =
  match t.stack with s :: _ -> s.phases <- phases | [] -> ()

let spans t = List.rev t.spans

let layer_of_name name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let last_component path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let parent_path path =
  match String.rindex_opt path '/' with
  | Some i -> Some (String.sub path 0 i)
  | None -> None

(* self time of every ledger phase: its total minus its direct children *)
let phase_self phases =
  List.map
    (fun p ->
      let children =
        List.fold_left
          (fun acc c ->
            if parent_path c.path = Some p.path then acc +. c.total_ns else acc)
          0. phases
      in
      (p, p.total_ns -. children))
    phases

(* ledger phases belong to the layer of the code that opens them *)
let layer_of_phase path =
  match last_component path with
  | "labels" | "verify2ec" | "verify3ec" -> "cycle_space"
  | "sparsify" | "thurimella" -> "sparsify"
  | _ -> "core"

(* Self time per layer over the given spans, in ns: a span's duration
   minus its child spans and, for a solver call, minus its top-level
   ledger phases, whose own self times go to their layers. A pass root's
   self time is what no layer claims: "unattributed". *)
let layer_self spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let acc = Hashtbl.create 16 in
  let add layer ns =
    Hashtbl.replace acc layer
      (ns +. Option.value ~default:0. (Hashtbl.find_opt acc layer))
  in
  List.iter
    (fun s ->
      let children =
        Option.value ~default:0. (Hashtbl.find_opt child_ns s.id)
      in
      let top_phases =
        List.fold_left
          (fun a p -> if parent_path p.path = None then a +. p.total_ns else a)
          0. s.phases
      in
      let own = duration s -. children -. top_phases in
      add (if s.parent < 0 then "unattributed" else layer_of_name s.name) own;
      List.iter (fun (p, self) -> add (layer_of_phase p.path) self)
        (phase_self s.phases))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let to_json ~workload ~seed t =
  let span_json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("name", Json.Str s.name);
        ("parent", Json.Int s.parent);
        ("run", Json.Int s.run);
        ("start_ns", Json.Float s.start);
        ("end_ns", Json.Float s.stop);
        ( "phases",
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("path", Json.Str p.path);
                     ("total_ns", Json.Float p.total_ns);
                     ("calls", Json.Int p.calls);
                   ])
               s.phases) );
      ]
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("spans", Json.List (List.map span_json (spans t)));
    ]

let write ~path ~workload ~seed t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ~workload ~seed t)))
