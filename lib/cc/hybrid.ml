open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec

let make ?(unsafe_forget_contended_commit = false) log id spec ~conflict
    ~read_only_op : Atomic_object.t =
  let olog = Obj_log.create log id in
  let store = Intentions.create spec in
  let versions = Version_chain.create spec in
  let invoke_read_only txn op =
    if not (read_only_op op) then begin
      Obj_log.dropped olog txn;
      Atomic_object.Refused
        (Fmt.str
           "hybrid: read-only activity invoked state-changing operation %a"
           Operation.pp op)
    end
    else
      match Txn.init_ts txn with
      | None ->
        Obj_log.dropped olog txn;
        Atomic_object.Refused "hybrid: read-only transaction has no timestamp"
      | Some ts -> (
        (* A prepared 2PC leg is dangerous: its commit timestamp was
           fixed by the coordinator when the decision was logged, which
           may be *below* [ts] even though the leg has not resolved
           yet.  Serving now would miss a version that later appears
           beneath us.  Active updates are safe to skip — their
           timestamp is drawn at commit time, after ours. *)
        match
          List.filter_map
            (fun (holder, _) ->
              if Txn.is_prepared holder then Some holder else None)
            (Intentions.active store)
        with
        | _ :: _ as bs -> Atomic_object.Wait bs
        | [] -> (
        match Version_chain.frontier_before versions ts with
        | None -> invalid_arg "Hybrid: version log no longer replays"
        | Some f -> (
          match Seq_spec.outcomes f op with
          | [] ->
            Obj_log.dropped olog txn;
            Atomic_object.Refused
              (Fmt.str "operation %a has no permissible outcome"
                 Operation.pp op)
          | (res, _) :: _ ->
            Obj_log.responded olog txn res;
            Atomic_object.Granted res)))
  in
  let invoke_update txn op =
    let blockers =
      List.filter_map
        (fun (holder, held) ->
          if Txn.equal holder txn then None
          else if List.exists (fun (q, _) -> conflict op q) held then
            Some holder
          else None)
        (Intentions.active store)
    in
    match blockers with
    | _ :: _ -> Atomic_object.Wait blockers
    | [] -> (
      match Intentions.execute store txn op with
      | Some res ->
        Obj_log.responded olog txn res;
        Atomic_object.Granted res
      | None ->
        Obj_log.dropped olog txn;
        Atomic_object.Refused
          (Fmt.str "operation %a has no permissible outcome" Operation.pp op))
  in
  let try_invoke txn op =
    Obj_log.invoked olog txn op;
    if Txn.is_read_only txn then invoke_read_only txn op
    else invoke_update txn op
  in
  let commit txn =
    if not (Txn.is_read_only txn) then begin
      let ops = Intentions.intentions store txn in
      let contended =
        List.exists
          (fun (holder, _) -> not (Txn.equal holder txn))
          (Intentions.active store)
      in
      (match Txn.commit_ts txn with
      | Some cts ->
        if ops <> [] && not (unsafe_forget_contended_commit && contended)
        then (
          match Version_chain.insert versions ~ts:cts ops with
          | Ok () -> ()
          | Error msg -> invalid_arg ("Hybrid.commit: " ^ msg))
      | None ->
        if ops <> [] then
          invalid_arg "Hybrid.commit: update committed without a timestamp");
      Intentions.commit store txn
    end;
    Obj_log.committed olog txn
  in
  let abort txn =
    if not (Txn.is_read_only txn) then Intentions.abort store txn;
    Obj_log.aborted olog txn
  in
  let initiate txn =
    if Txn.is_read_only txn then Obj_log.initiated olog txn
  in
  { id; spec; try_invoke; commit; abort; initiate;
    depth = (fun () -> List.length (Intentions.active store)) }

let of_adt log id (module A : Weihl_adt.Adt_sig.S) =
  make log id A.spec
    ~conflict:(fun p q -> not (A.commutes p q))
    ~read_only_op:(fun op -> A.classify op = Weihl_adt.Adt_sig.Read)
