(* Order statistics over measured samples. *)

(* Nearest-rank percentile of an unsorted sample; nan when empty. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50. xs
let median_l xs = median (Array.of_list xs)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Growth at a single size: mean of the last quarter of a run's
   samples (in call order) over the mean of its first quarter.  About
   1.0 when the per-call cost does not depend on history length. *)
let growth xs =
  let n = Array.length xs in
  if n < 8 then nan
  else begin
    let q = n / 4 in
    let m a b =
      let s = ref 0. in
      for i = a to b - 1 do
        s := !s +. xs.(i)
      done;
      !s /. float_of_int (b - a)
    in
    m (n - q) n /. m 0 q
  end

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
