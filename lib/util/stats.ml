let sum xs =
  (* Kahan summation keeps experiment aggregates stable across runs. *)
  let s = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    xs;
  !s

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int n)
  end

let percentile xs p =
  assert (Array.length xs > 0);
  assert (0.0 <= p && p <= 100.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let percentile_buckets ~upper ~counts p =
  assert (Array.length counts = Array.length upper + 1);
  assert (0.0 <= p && p <= 100.0);
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    (* same convention as [percentile]: target the interpolated rank
       p/100 * (n - 1) over the sorted observations, except the sorted
       order is only known bucket-by-bucket, so interpolate linearly
       within the covering bucket. The first bucket's lower edge is 0
       (the registries record non-negative quantities). *)
    let rank = p /. 100.0 *. float_of_int (total - 1) in
    let n_bounds = Array.length upper in
    let rec find i cum_before =
      if i >= n_bounds then None (* overflow bucket: unbounded above *)
      else
        let c = counts.(i) in
        if c > 0 && rank < float_of_int (cum_before + c) then begin
          let lo = if i = 0 then 0.0 else upper.(i - 1) in
          let hi = upper.(i) in
          let frac = (rank -. float_of_int cum_before) /. float_of_int c in
          Some (lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac)))
        end
        else find (i + 1) (cum_before + c)
    in
    find 0 0
  end

let minimum xs =
  assert (Array.length xs > 0);
  Array.fold_left min xs.(0) xs

let maximum xs =
  assert (Array.length xs > 0);
  Array.fold_left max xs.(0) xs
