(* Version chains: sorted inserts, memoized as-of frontiers and folding
   below a mark, checked against a naive fold of the sorted versions. *)

open Core
open Helpers
module Vc = Version_chain

let to_alcotest = QCheck_alcotest.to_alcotest

let insert_ok c ts ops =
  match Vc.insert c ~ts:(Timestamp.v ts) ops with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let balance f =
  match Seq_spec.outcomes f Bank_account.balance with
  | [ (Value.Int n, _) ] -> n
  | _ -> Alcotest.fail "balance not determined"

let balance_before c ts =
  match Vc.frontier_before c (Timestamp.v ts) with
  | Some f -> balance f
  | None -> Alcotest.failf "no frontier before %d" ts

let dep n = (Bank_account.deposit n, Value.ok)

(* Logged results depend on order: at ts 4 the withdrawal found only
   the 5 deposited at ts 2, so folding in insertion order (10 first)
   would contradict its logged result. *)
let withdraw_insufficient n =
  let f = Seq_spec.start Bank_account.spec in
  match Seq_spec.outcomes f (Bank_account.withdraw n) with
  | (v, _) :: _ -> (Bank_account.withdraw n, v)
  | [] -> Alcotest.fail "withdraw has no outcome"

let test_out_of_order_insert () =
  let c = Vc.create Bank_account.spec in
  insert_ok c 6 [ dep 10 ];
  insert_ok c 4 [ withdraw_insufficient 8 ];
  insert_ok c 2 [ dep 5 ];
  check_int "three versions" 3 (Vc.length c);
  check_int "before 2" 0 (balance_before c 2);
  check_int "before 3" 5 (balance_before c 3);
  check_int "before 5" 5 (balance_before c 5);
  check_int "before 7" 15 (balance_before c 7);
  (* A late version below a memoized point invalidates the memo. *)
  insert_ok c 3 [ dep 1 ];
  check_int "before 7 after a late insert" 16 (balance_before c 7)

let test_insert_below_mark_refused () =
  let c = Vc.create Bank_account.spec in
  insert_ok c 2 [ dep 5 ];
  insert_ok c 8 [ dep 7 ];
  Vc.fold_below c (Timestamp.v 5);
  check_int "folded one version" 1 (Vc.length c);
  check_bool "insert at the mark refused" true
    (Result.is_error (Vc.insert c ~ts:(Timestamp.v 5) [ dep 1 ]));
  check_bool "insert below the mark refused" true
    (Result.is_error (Vc.insert c ~ts:(Timestamp.v 3) [ dep 1 ]));
  check_bool "frontier below the mark unknown" true
    (Vc.frontier_before c (Timestamp.v 4) = None);
  insert_ok c 6 [ dep 1 ];
  check_int "before 7" 6 (balance_before c 7);
  check_int "before 9" 13 (balance_before c 9)

let test_fold_idempotent () =
  let c = Vc.create Bank_account.spec in
  List.iter (fun ts -> insert_ok c ts [ dep ts ]) [ 1; 3; 5; 7; 9 ];
  Vc.fold_below c (Timestamp.v 6);
  let len = Vc.length c and adv = Vc.advances c in
  Vc.fold_below c (Timestamp.v 6);
  check_int "same suffix" len (Vc.length c);
  check_int "no further work" adv (Vc.advances c);
  Vc.fold_below c (Timestamp.v 4);
  check_int "folding below the mark is a no-op" len (Vc.length c);
  check_int "before 6" 9 (balance_before c 6);
  check_int "before 10" 25 (balance_before c 10)

(* Versions generated in timestamp order against the specification, so
   a withdrawal's logged result (ok or insufficient funds) is exactly
   what the sorted fold must reproduce. *)
let versions_of spec_ops =
  let _, _, vs =
    List.fold_left
      (fun (ts, f, acc) (gap, ops) ->
        let ts = ts + 2 + (2 * gap) in
        let f, ops =
          List.fold_left
            (fun (f, ops) (deposit, n) ->
              let op =
                if deposit then Bank_account.deposit n
                else Bank_account.withdraw n
              in
              match Seq_spec.outcomes f op with
              | (v, f') :: _ -> (f', (op, v) :: ops)
              | [] -> (f, ops))
            (f, []) ops
        in
        (ts, f, (ts, List.rev ops) :: acc))
      (0, Seq_spec.start Bank_account.spec, [])
      spec_ops
  in
  List.rev vs

(* [None] when the versions below [b] do not replay — a subset that
   misses the deposit an ok withdrawal relied on. *)
let naive_balance vs b =
  List.fold_left
    (fun f (ts, ops) ->
      if ts < b then
        List.fold_left
          (fun f (op, v) -> Option.bind f (fun f -> Seq_spec.advance f op v))
          f ops
      else f)
    (Some (Seq_spec.start Bank_account.spec))
    vs
  |> Option.map balance

let prop_chain_matches_naive_fold =
  QCheck2.Test.make ~name:"version chain ≡ naive sorted fold at every boundary"
    ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 24)
           (pair (int_bound 3)
              (list_size (int_range 1 3) (pair bool (int_range 1 9)))))
        (int_bound 10_000) (int_bound 100))
    (fun (spec_ops, shuffle_seed, fold_pct) ->
      let vs = versions_of spec_ops in
      let rng = Random.State.make [| shuffle_seed |] in
      let by_ts l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
      let order = by_ts (List.map (fun v -> (Random.State.bits rng, v)) vs) in
      let top = fst (List.nth vs (List.length vs - 1)) + 1 in
      let c = Vc.create Bank_account.spec in
      let inserted = ref [] in
      let agrees_at b =
        Option.map balance (Vc.frontier_before c (Timestamp.v b))
        = naive_balance (by_ts !inserted) b
      in
      let agrees lo = List.for_all agrees_at (List.init (top - lo + 1) (( + ) lo)) in
      (* Interleave queries with the inserts, so memos exist to be
         invalidated — on the subset inserted so far, which need not
         replay. *)
      let ok =
        List.for_all
          (fun (_, (ts, ops)) ->
            insert_ok c ts ops;
            inserted := (ts, ops) :: !inserted;
            agrees_at (Random.State.int rng (top + 1)))
          order
      in
      let all_before = ok && agrees 0 in
      let m = fold_pct * top / 100 in
      Vc.fold_below c (Timestamp.v m);
      Vc.fold_below c (Timestamp.v m);
      all_before && agrees m
      && List.length (List.filter (fun (ts, _) -> ts >= m) vs) = Vc.length c)

let suite =
  [
    Alcotest.test_case "out-of-order inserts fold in timestamp order" `Quick
      test_out_of_order_insert;
    Alcotest.test_case "inserts at or below the mark are refused" `Quick
      test_insert_below_mark_refused;
    Alcotest.test_case "fold_below is idempotent" `Quick test_fold_idempotent;
    to_alcotest prop_chain_matches_naive_fold;
  ]
