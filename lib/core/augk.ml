open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_obs

type config = { m_phase : int; max_iterations : int; use_mst_filter : bool }

let default_config n =
  let l = max 1 (Cover.log2_ceil (n + 1)) in
  { m_phase = 1; max_iterations = (20 * l * l * l) + 500; use_mst_filter = true }

type result = {
  augmentation : Bitset.t;
  iterations : int;
  phases : int;
  cut_count : int;
  repaired : int;
  active_weight : int;
}

(* Kruskal on the filter weights (A ↦ 0, active ↦ 1, rest ↦ 2), with edge-id
   tie-break: the same tree the distributed MST of Line 4 computes.
   Edge ids are ascending, so three class passes visit the edges in exactly
   the (filter weight, id) order a sort would produce — no per-iteration
   O(m log m) re-sort, and no edge records materialised. *)
let filter_mst g ~a ~active =
  let n = Graph.n g in
  let m = Graph.m g in
  let uf = Union_find.create n in
  let chosen = Hashtbl.create 64 in
  let pass keep =
    for e = 0 to m - 1 do
      if keep e then
        if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then
          Hashtbl.replace chosen e ()
    done
  in
  pass (fun id -> Bitset.mem a id);
  pass (fun id -> (not (Bitset.mem a id)) && Bitset.mem active id);
  pass (fun id -> not (Bitset.mem a id || Bitset.mem active id));
  chosen

(* per-iteration distributed cost beside the MST filter: broadcast of the
   edges added this iteration and O(D) agreement on the maximum level *)
let charge_iteration ledger ~bfs_forest ~added =
  ignore
    (Prim.wave_up ledger bfs_forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) 0 kids |]));
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
         [| 0 |] :: List.map (fun e -> [| e |]) added))

let covering g ~h cuts =
  {
    Cover.elements = Array.length cuts;
    candidates = Graph.m g;
    weight = Graph.weight g;
    covered_by =
      (fun e ->
        let acc = ref [] in
        if not (Bitset.mem h e) then
          for ci = Array.length cuts - 1 downto 0 do
            if Min_cut_enum.covers g cuts.(ci) e then acc := ci :: !acc
          done;
        Array.of_list !acc);
  }

let augment ?config ledger rng ~bfs_forest g ~h ~k =
  Rounds.scoped ledger "augk" @@ fun () ->
  let tr = Rounds.trace ledger in
  let n = Graph.n g in
  let m = Graph.m g in
  let config = match config with Some c -> c | None -> default_config n in
  if Edge_connectivity.is_k_edge_connected ~mask:h g k then
    {
      augmentation = Graph.no_edges_mask g;
      iterations = 0;
      phases = 0;
      cut_count = 0;
      repaired = 0;
      active_weight = 0;
    }
  else begin
    let lam = Edge_connectivity.lambda ~mask:h ~upper:k g in
    if lam < k - 1 then
      invalid_arg "Augk.augment: H is not (k-1)-edge-connected";
    (* the vertices learn H over the BFS tree (the O(kn)-edge invariant) *)
    ignore
      (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
           List.map (fun e -> [| e |]) (Bitset.elements h)));
    (* enumerate the size-(k-1) cuts of H — every vertex does this locally *)
    let cuts =
      Array.of_list
        (Min_cut_enum.enumerate ~mask:h ~rng:(Rng.split rng) g ~size:(k - 1))
    in
    let cover = Cover.init (covering g ~h cuts) in
    let a = Cover.chosen cover in
    (* measured round cost of the distributed MST filter, calibrated once *)
    let mst_rounds = ref None in
    let charge_mst_filter ~active =
      let r =
        match !mst_rounds with
        | Some r -> r
        | None ->
          let weights e =
            if Bitset.mem a e.Graph.id then 0
            else if Bitset.mem active e.Graph.id then 1
            else 2
          in
          let probe = Rounds.create () in
          ignore (Mst.run probe (Rng.split rng) (Graph.map_weights weights g));
          let r = Rounds.total probe in
          mst_rounds := Some r;
          r
      in
      Rounds.charge ledger ~category:"mst_filter" r
    in
    let iterations = ref 0 in
    let active_weight = ref 0 in
    (* edges that have ever been active: active_weight counts each distinct
       edge once, matching its documented meaning — re-activations across
       iterations used to be double-counted *)
    let ever_active = Bitset.create (max 1 m) in
    let schedule =
      Cover.Schedule.create ~trace:tr ~algo:"augk" ~m_phase:config.m_phase ~n
        ~candidates:m ()
    in
    Trace.instant tr "cut census"
      ~args:[ ("cuts", Trace.Int (Array.length cuts)); ("k", Trace.Int k) ];
    Events.instance_size tr ~algo:"augk" ~n;
    let stuck = ref false in
    while Cover.uncovered cover > 0 && not !stuck do
      incr iterations;
      Events.iteration_begin tr ~algo:"augk" ~index:!iterations;
      (* Line 1–2: levels and candidates *)
      let max_level = Cover.max_level cover in
      if max_level = Cost.useless then begin
        (* no remaining edge covers an uncovered cut: the enumeration must
           have produced a cut that is not a real cut of G (impossible for
           exact enumeration) — fall through to the repair net *)
        stuck := true;
        Events.iteration_end tr ~algo:"augk" ~added:0 ~remaining:0
      end
      else begin
        Cover.Schedule.enter schedule max_level;
        if !iterations > config.max_iterations then Cover.Schedule.pin schedule;
        (* Line 3: activation — the coverage state yields the max-level
           candidates in ascending id order, so the bernoulli draws happen
           in the same order as a full scan *)
        let active = Bitset.create (max 1 m) in
        let active_count = ref 0 in
        Cover.iter_at cover max_level (fun e ->
            if Cover.Schedule.draw schedule rng then begin
              Bitset.add active e;
              incr active_count;
              if not (Bitset.mem ever_active e) then begin
                Bitset.add ever_active e;
                active_weight := !active_weight + Graph.weight g e
              end
            end);
        Events.candidate_census tr ~algo:"augk" ~level:max_level
          ~candidates:!active_count;
        (* Line 4: the MST filter *)
        let added = ref [] in
        if !active_count > 0 then begin
          if config.use_mst_filter then begin
            let chosen = filter_mst g ~a ~active in
            Bitset.iter
              (fun e -> if Hashtbl.mem chosen e then added := e :: !added)
              active
          end
          else
            (* ablation: skip Line 4 and keep every active candidate *)
            Bitset.iter (fun e -> added := e :: !added) active;
          (* audit the rounding evidence before the commits change ce *)
          if Trace.enabled tr then
            List.iter
              (fun e ->
                Events.rho_audit tr ~algo:"augk" ~edge:e
                  ~covered:(Cover.ce cover e) ~weight:(Graph.weight g e)
                  ~level:max_level)
              !added;
          List.iter (Cover.commit cover) (List.sort compare !added)
        end;
        charge_mst_filter ~active;
        charge_iteration ledger ~bfs_forest ~added:!added;
        Cover.Schedule.tick schedule;
        Events.iteration_end tr ~algo:"augk" ~added:(List.length !added)
          ~remaining:(Cover.uncovered cover)
      end
    done;
    (* exact termination check with greedy repair (Lemma-4.5 failures) *)
    let repairs = Edge_connectivity.greedy_repair g ~base:h ~add:a ~k in
    List.iter
      (fun e ->
        Cover.commit cover e;
        Events.repair tr ~algo:"augk" ~edge:e)
      repairs;
    {
      augmentation = a;
      iterations = !iterations;
      phases = Cover.Schedule.phases schedule;
      cut_count = Array.length cuts;
      repaired = List.length repairs;
      active_weight = !active_weight;
    }
  end
