(* Sparse LU with Markowitz pivoting, threshold partial pivoting and a
   product-form eta file. See the .mli for the index-space contract.

   Factorization: Gaussian elimination on a row-wise copy of the
   basis. At step k a pivot (p, q) is chosen among the shortest active
   columns by Markowitz cost, subject to |a_pq| >= tau * max|a_.q|;
   row p then eliminates every other row with an entry in column q.
   The recorded elimination ops are the L factor (B = L1..Lm U), the
   surviving rows are U in pivot order. Column adjacency lists are
   maintained lazily (stale entries are dropped on scan, exact counts
   are kept separately), and row merges run through a dense scatter
   accumulator so each merge costs O(nonzeros touched).

   The shortest active columns are found through count buckets: bucket
   k is a bitset over the active columns with exactly k nonzeros, so
   the minimum count is a walk up from 1 and the candidates, in index
   order, come from lowest-set-bit extraction. All elimination scratch
   lives in one workspace per domain that grows with m and is reused
   by every factorization; a factorization allocates only its output
   arrays, with L and U stored flat (start offsets into index and value
   arrays). *)

exception Singular

let tau = 0.1 (* threshold partial pivoting factor *)

let singular_tol = 1e-12 (* a column whose largest entry is below this is dead *)

let drop_tol = 1e-13 (* elimination entries below this are discarded *)

type eta = {
  e_r : int; (* pivot basis position *)
  e_piv : float;
  e_idx : int array; (* other positions touched, with their alpha values *)
  e_val : float array;
}

type t = {
  m : int;
  (* L ops in elimination order: step k subtracts multiples of source
     row l_src.(k) from the rows l_idx.(l_start.(k) .. l_start.(k+1) - 1),
     with multipliers l_val *)
  l_src : int array;
  l_start : int array;
  l_idx : int array;
  l_val : float array;
  (* U in pivot order: pivot row/position/value plus the row remainder
     u_idx/u_val.(u_start.(k) .. u_start.(k+1) - 1), whose basis
     positions are pivotal at later steps *)
  perm_r : int array;
  perm_c : int array;
  u_piv : float array;
  u_start : int array;
  u_idx : int array;
  u_val : float array;
  basis_nnz : int;
  factor_nnz : int;
  mutable etas : eta array;
  mutable n_eta : int;
  mutable eta_nnz : int;
}

type stats = {
  basis_nnz : int;
  factor_nnz : int;
  eta_count : int;
  eta_nnz : int;
}

(* --- elimination workspace ----------------------------------------- *)

let bits = Sys.int_size (* columns per bucket word *)

type ws = {
  mutable cap : int; (* rows and columns the buffers can hold *)
  (* the active matrix row-wise, one growable buffer per row *)
  mutable row_cols : int array array;
  mutable row_vals : float array array;
  mutable row_len : int array;
  (* lazy column adjacency: may hold stale and duplicate rows *)
  mutable col_rows : int array array;
  mutable col_len : int array;
  mutable colcount : int array; (* exact nonzeros per column *)
  mutable row_active : Bytes.t;
  mutable col_active : Bytes.t;
  (* scatter accumulator for row merges, and the fills of one merge *)
  mutable spa : float array;
  mutable spa_mark : Bytes.t;
  mutable fills : int array;
  (* per-column scan dedup (stale entries can duplicate a live one) *)
  mutable seen : Bytes.t;
  (* live rows of the column last compacted, with the offset of that
     column's entry in each row buffer *)
  mutable live : int array;
  mutable live_pos : int array;
  mutable n_live : int;
  (* count buckets: bucket k >= 1 is the bitset of active columns with
     count k, words [k * words, (k + 1) * words) of [buckets] *)
  mutable words : int;
  mutable max_count : int;
  mutable buckets : int array;
  mutable bucket_size : int array;
  mutable bucketed : int; (* columns in some bucket *)
  (* L and U staging, copied out at the end *)
  mutable l_idx : int array;
  mutable l_val : float array;
  mutable l_n : int;
  mutable u_idx : int array;
  mutable u_val : float array;
  mutable u_n : int;
  (* pivot search: the last evaluated column's best row cost and the
     pivot chosen so far; [abs] holds their magnitudes unboxed *)
  mutable ev_cost : int;
  mutable piv_row : int;
  mutable piv_col : int;
  mutable piv_cost : int;
  abs : float array;
}

let create_ws () =
  {
    cap = 0;
    row_cols = [||];
    row_vals = [||];
    row_len = [||];
    col_rows = [||];
    col_len = [||];
    colcount = [||];
    row_active = Bytes.empty;
    col_active = Bytes.empty;
    spa = [||];
    spa_mark = Bytes.empty;
    fills = [||];
    seen = Bytes.empty;
    live = [||];
    live_pos = [||];
    n_live = 0;
    words = 0;
    max_count = 16;
    buckets = [||];
    bucket_size = Array.make 17 0;
    bucketed = 0;
    l_idx = Array.make 16 0;
    l_val = Array.make 16 0.0;
    l_n = 0;
    u_idx = Array.make 16 0;
    u_val = Array.make 16 0.0;
    u_n = 0;
    ev_cost = 0;
    piv_row = -1;
    piv_col = -1;
    piv_cost = 0;
    abs = Array.make 2 0.0;
  }

let ws_key = Domain.DLS.new_key create_ws

(* Size the workspace for [m]; only called on a clean workspace, so
   buffers that carry no state between calls are simply replaced. *)
let reserve ws m =
  if m > ws.cap then begin
    let old = ws.cap and cap = m in
    let keep a fresh = Array.init cap (fun i -> if i < old then a.(i) else fresh ()) in
    ws.row_cols <- keep ws.row_cols (fun () -> Array.make 4 0);
    ws.row_vals <- keep ws.row_vals (fun () -> Array.make 4 0.0);
    ws.col_rows <- keep ws.col_rows (fun () -> Array.make 4 0);
    ws.row_len <- Array.make cap 0;
    ws.col_len <- Array.make cap 0;
    ws.colcount <- Array.make cap 0;
    ws.row_active <- Bytes.make cap '\000';
    ws.col_active <- Bytes.make cap '\000';
    ws.spa <- Array.make cap 0.0;
    ws.spa_mark <- Bytes.make cap '\000';
    ws.fills <- Array.make cap 0;
    ws.seen <- Bytes.make cap '\000';
    ws.live <- Array.make cap 0;
    ws.live_pos <- Array.make cap 0;
    ws.cap <- cap;
    ws.words <- (cap + bits - 1) / bits;
    ws.buckets <- Array.make ((ws.max_count + 1) * ws.words) 0
  end

(* Put the scratch that must start clean back to zero after a failed
   factorization. A successful one leaves it clean by construction:
   every column has been retired from its bucket and every merge
   cleared the accumulator. *)
let scrub ws m =
  Array.fill ws.buckets 0 (Array.length ws.buckets) 0;
  Array.fill ws.bucket_size 0 (Array.length ws.bucket_size) 0;
  ws.bucketed <- 0;
  Array.fill ws.spa 0 m 0.0;
  Bytes.fill ws.spa_mark 0 m '\000';
  Bytes.fill ws.seen 0 m '\000'

(* --- count buckets -------------------------------------------------- *)

let grow_buckets ws k =
  let max_count = max k (2 * ws.max_count) in
  let b = Array.make ((max_count + 1) * ws.words) 0 in
  Array.blit ws.buckets 0 b 0 (Array.length ws.buckets);
  let s = Array.make (max_count + 1) 0 in
  Array.blit ws.bucket_size 0 s 0 (Array.length ws.bucket_size);
  ws.buckets <- b;
  ws.bucket_size <- s;
  ws.max_count <- max_count

let bucket_add ws c k =
  if k > ws.max_count then grow_buckets ws k;
  let w = (k * ws.words) + (c / bits) in
  ws.buckets.(w) <- ws.buckets.(w) lor (1 lsl (c mod bits));
  ws.bucket_size.(k) <- ws.bucket_size.(k) + 1;
  ws.bucketed <- ws.bucketed + 1

let bucket_remove ws c k =
  let w = (k * ws.words) + (c / bits) in
  ws.buckets.(w) <- ws.buckets.(w) land lnot (1 lsl (c mod bits));
  ws.bucket_size.(k) <- ws.bucket_size.(k) - 1;
  ws.bucketed <- ws.bucketed - 1

(* The one place a column count changes: an active column moves to the
   bucket of its new count (count 0 has no bucket). *)
let bump ws c d =
  let k = ws.colcount.(c) in
  ws.colcount.(c) <- k + d;
  if Bytes.unsafe_get ws.col_active c = '\001' then begin
    if k > 0 then bucket_remove ws c k;
    if k + d > 0 then bucket_add ws c (k + d)
  end

let retire_col ws q =
  if ws.colcount.(q) > 0 then bucket_remove ws q ws.colcount.(q);
  Bytes.unsafe_set ws.col_active q '\000'

(* index of the lowest set bit of [x <> 0] *)
let lowest_bit x =
  let b = ref (x land -x) and n = ref 0 in
  if !b land 0xFFFFFFFF = 0 then begin
    n := 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then !n + 1 else !n

(* --- growable buffers ----------------------------------------------- *)

let row_push ws i c v =
  let n = ws.row_len.(i) in
  if n = Array.length ws.row_cols.(i) then begin
    let cols = Array.make (2 * n) 0 and vals = Array.make (2 * n) 0.0 in
    Array.blit ws.row_cols.(i) 0 cols 0 n;
    Array.blit ws.row_vals.(i) 0 vals 0 n;
    ws.row_cols.(i) <- cols;
    ws.row_vals.(i) <- vals
  end;
  ws.row_cols.(i).(n) <- c;
  ws.row_vals.(i).(n) <- v;
  ws.row_len.(i) <- n + 1

let col_push ws c i =
  let n = ws.col_len.(c) in
  if n = Array.length ws.col_rows.(c) then begin
    let a = Array.make (2 * n) 0 in
    Array.blit ws.col_rows.(c) 0 a 0 n;
    ws.col_rows.(c) <- a
  end;
  ws.col_rows.(c).(n) <- i;
  ws.col_len.(c) <- n + 1

(* room for [extra] more L (resp. U) entries *)
let reserve_l ws extra =
  let need = ws.l_n + extra in
  if need > Array.length ws.l_idx then begin
    let cap = max need (2 * Array.length ws.l_idx) in
    let idx = Array.make cap 0 and vals = Array.make cap 0.0 in
    Array.blit ws.l_idx 0 idx 0 ws.l_n;
    Array.blit ws.l_val 0 vals 0 ws.l_n;
    ws.l_idx <- idx;
    ws.l_val <- vals
  end

let reserve_u ws extra =
  let need = ws.u_n + extra in
  if need > Array.length ws.u_idx then begin
    let cap = max need (2 * Array.length ws.u_idx) in
    let idx = Array.make cap 0 and vals = Array.make cap 0.0 in
    Array.blit ws.u_idx 0 idx 0 ws.u_n;
    Array.blit ws.u_val 0 vals 0 ws.u_n;
    ws.u_idx <- idx;
    ws.u_val <- vals
  end

(* --- pivot search --------------------------------------------------- *)

(* offset of column [c] in row [i]'s buffer, or -1 *)
let row_pos ws i c =
  let cols = ws.row_cols.(i) and n = ws.row_len.(i) in
  let k = ref 0 in
  while !k < n && cols.(!k) <> c do
    incr k
  done;
  if !k < n then !k else -1

(* Drop stale/duplicate entries of column q in place; fill [live] with
   the surviving row indices and [live_pos] with their entry offsets. *)
let compact ws q =
  let lst = ws.col_rows.(q) in
  let n = ref 0 and w = ref 0 in
  for k = 0 to ws.col_len.(q) - 1 do
    let i = lst.(k) in
    if
      Bytes.unsafe_get ws.row_active i = '\001'
      && Bytes.unsafe_get ws.seen i = '\000'
    then begin
      let pos = row_pos ws i q in
      if pos >= 0 then begin
        Bytes.unsafe_set ws.seen i '\001';
        lst.(!w) <- i;
        incr w;
        ws.live.(!n) <- i;
        ws.live_pos.(!n) <- pos;
        incr n
      end
    end
  done;
  ws.col_len.(q) <- !w;
  ws.n_live <- !n;
  for k = 0 to !n - 1 do
    Bytes.unsafe_set ws.seen ws.live.(k) '\000'
  done

let live_abs ws k = abs_float ws.row_vals.(ws.live.(k)).(ws.live_pos.(k))

(* Best acceptable pivot row of column q: Markowitz cost, ties to the
   larger magnitude. Returns the row, leaving its cost in [ev_cost]
   and its magnitude in [abs.(0)], or -1 when the column is dead. *)
let eval_col ws q =
  compact ws q;
  let colmax = ref 0.0 in
  for k = 0 to ws.n_live - 1 do
    let a = live_abs ws k in
    if a > !colmax then colmax := a
  done;
  if !colmax < singular_tol then -1
  else begin
    let cq = ws.n_live in
    let best = ref (-1) and best_cost = ref max_int and best_abs = ref 0.0 in
    for k = 0 to ws.n_live - 1 do
      let i = ws.live.(k) in
      let a = live_abs ws k in
      if a >= tau *. !colmax then begin
        let cost = (ws.row_len.(i) - 1) * (cq - 1) in
        if cost < !best_cost || (cost = !best_cost && a > !best_abs) then begin
          best := i;
          best_cost := cost;
          best_abs := a
        end
      end
    done;
    ws.ev_cost <- !best_cost;
    ws.abs.(0) <- !best_abs;
    !best
  end

(* Offer column q's best row; the earlier candidate keeps a tie of
   cost and magnitude. *)
let consider ws q =
  let i = eval_col ws q in
  if i >= 0 then begin
    let cost = ws.ev_cost and a = ws.abs.(0) in
    if
      ws.piv_row >= 0
      && (ws.piv_cost < cost || (ws.piv_cost = cost && ws.abs.(1) >= a))
    then ()
    else begin
      ws.piv_row <- i;
      ws.piv_col <- q;
      ws.piv_cost <- cost;
      ws.abs.(1) <- a
    end
  end

(* Candidate columns: the first 4 active ones, in index order, with the
   smallest nonzero count; fall back to every active column when all
   candidates are numerically dead. *)
let choose_pivot ws m =
  ws.piv_row <- -1;
  if ws.bucketed > 0 then begin
    let k = ref 1 in
    while ws.bucket_size.(!k) = 0 do
      incr k
    done;
    let base = !k * ws.words in
    let cand = ref 0 and w = ref 0 in
    while !cand < 4 && !w < ws.words do
      let x = ref ws.buckets.(base + !w) in
      while !cand < 4 && !x <> 0 do
        consider ws ((!w * bits) + lowest_bit !x);
        incr cand;
        x := !x land (!x - 1)
      done;
      incr w
    done
  end;
  if ws.piv_row < 0 then
    for c = 0 to m - 1 do
      if Bytes.unsafe_get ws.col_active c = '\001' && ws.colcount.(c) > 0 then
        consider ws c
    done

(* --- factorization ------------------------------------------------- *)

(* row_i := row_i - mi * (U remainder of the pivot row), the pivot
   column q removed; the remainder is u_idx/u_val.(us .. us + ulen - 1) *)
let merge ws i q mi us ulen =
  let cols = ws.row_cols.(i) and vals = ws.row_vals.(i) in
  let len = ws.row_len.(i) in
  let spa = ws.spa and mark = ws.spa_mark in
  for e = 0 to len - 1 do
    spa.(cols.(e)) <- vals.(e);
    Bytes.unsafe_set mark cols.(e) '\001'
  done;
  let n_fill = ref 0 in
  for e = us to us + ulen - 1 do
    let c = ws.u_idx.(e) in
    if Bytes.unsafe_get mark c = '\001' then
      spa.(c) <- spa.(c) -. (mi *. ws.u_val.(e))
    else begin
      spa.(c) <- -.mi *. ws.u_val.(e);
      Bytes.unsafe_set mark c '\001';
      ws.fills.(!n_fill) <- c;
      incr n_fill
    end
  done;
  (* rebuild the row in place from the old pattern (minus q), clearing
     the accumulator as it goes, then append the fills *)
  let w = ref 0 in
  for e = 0 to len - 1 do
    let c = cols.(e) in
    if c <> q then begin
      let x = spa.(c) in
      if abs_float x > drop_tol then begin
        cols.(!w) <- c;
        vals.(!w) <- x;
        incr w
      end
      else bump ws c (-1) (* cancelled *)
    end;
    spa.(c) <- 0.0;
    Bytes.unsafe_set mark c '\000'
  done;
  ws.row_len.(i) <- !w;
  for e = 0 to !n_fill - 1 do
    let c = ws.fills.(e) in
    let x = spa.(c) in
    if abs_float x > drop_tol then begin
      row_push ws i c x;
      bump ws c 1;
      col_push ws c i
    end;
    spa.(c) <- 0.0;
    Bytes.unsafe_set mark c '\000'
  done

let eliminate ws ~m ~col =
  reserve ws m;
  for i = 0 to m - 1 do
    ws.row_len.(i) <- 0;
    ws.col_len.(i) <- 0;
    ws.colcount.(i) <- 0
  done;
  Bytes.fill ws.row_active 0 m '\001';
  Bytes.fill ws.col_active 0 m '\001';
  ws.l_n <- 0;
  ws.u_n <- 0;
  let basis_nnz = ref 0 and cur = ref 0 in
  let load i a =
    (* the workspace may be larger than m: reject rows it would accept *)
    if i >= m then invalid_arg "Lu.factor: row index out of range";
    if a <> 0.0 then begin
      row_push ws i !cur a;
      col_push ws !cur i;
      bump ws !cur 1;
      incr basis_nnz
    end
  in
  for c = 0 to m - 1 do
    cur := c;
    col c load
  done;
  let l_src = Array.make m 0 and l_start = Array.make (m + 1) 0 in
  let perm_r = Array.make m 0 and perm_c = Array.make m 0 in
  let u_piv = Array.make m 0.0 and u_start = Array.make (m + 1) 0 in
  for step = 0 to m - 1 do
    choose_pivot ws m;
    if ws.piv_row < 0 then raise Singular;
    let p = ws.piv_row and q = ws.piv_col in
    (* eval_col ran on several candidates; refresh [live] for the
       winning column before eliminating *)
    compact ws q;
    let prow_cols = ws.row_cols.(p) and prow_vals = ws.row_vals.(p) in
    let plen = ws.row_len.(p) in
    let apq = prow_vals.(row_pos ws p q) in
    perm_r.(step) <- p;
    perm_c.(step) <- q;
    u_piv.(step) <- apq;
    (* U remainder of row p, and its retirement from the counts *)
    reserve_u ws plen;
    let us = ws.u_n in
    for k = 0 to plen - 1 do
      let c = prow_cols.(k) in
      if c <> q then begin
        ws.u_idx.(ws.u_n) <- c;
        ws.u_val.(ws.u_n) <- prow_vals.(k);
        ws.u_n <- ws.u_n + 1;
        bump ws c (-1)
      end
    done;
    u_start.(step + 1) <- ws.u_n;
    Bytes.unsafe_set ws.row_active p '\000';
    retire_col ws q;
    (* eliminate the other rows of column q; [live] is still the
       compacted scan of column q *)
    reserve_l ws ws.n_live;
    l_src.(step) <- p;
    for k = 0 to ws.n_live - 1 do
      let i = ws.live.(k) in
      if i <> p then begin
        let mi = ws.row_vals.(i).(ws.live_pos.(k)) /. apq in
        ws.l_idx.(ws.l_n) <- i;
        ws.l_val.(ws.l_n) <- mi;
        ws.l_n <- ws.l_n + 1;
        merge ws i q mi us (ws.u_n - us)
      end
    done;
    l_start.(step + 1) <- ws.l_n
  done;
  {
    m;
    l_src;
    l_start;
    l_idx = Array.sub ws.l_idx 0 ws.l_n;
    l_val = Array.sub ws.l_val 0 ws.l_n;
    perm_r;
    perm_c;
    u_piv;
    u_start;
    u_idx = Array.sub ws.u_idx 0 ws.u_n;
    u_val = Array.sub ws.u_val 0 ws.u_n;
    basis_nnz = !basis_nnz;
    factor_nnz = m + ws.u_n + ws.l_n;
    etas = [||];
    n_eta = 0;
    eta_nnz = 0;
  }

let factor ~m ~col =
  let ws = Domain.DLS.get ws_key in
  try eliminate ws ~m ~col
  with e ->
    scrub ws (min m ws.cap);
    raise e

(* --- solves -------------------------------------------------------- *)

(* The solves write through [Sparse_vec.raw] after an int-only
   [Sparse_vec.touch], so no float crosses a call boundary and a solve
   allocates nothing. *)

let ftran t ~rhs ~into =
  Sparse_vec.clear into;
  if t.m > 0 then begin
    let bv = Sparse_vec.raw rhs in
    (* apply L^-1 ops in elimination order *)
    for k = 0 to t.m - 1 do
      let s = t.l_start.(k) and e = t.l_start.(k + 1) in
      if e > s then begin
        let x = bv.(t.l_src.(k)) in
        if x <> 0.0 then
          for j = s to e - 1 do
            let i = t.l_idx.(j) in
            if bv.(i) = 0.0 then Sparse_vec.touch rhs i;
            bv.(i) <- bv.(i) +. (-.t.l_val.(j) *. x)
          done
      end
    done;
    (* back substitution with U, descending pivot order *)
    let xv = Sparse_vec.raw into in
    for k = t.m - 1 downto 0 do
      let acc = ref bv.(t.perm_r.(k)) in
      for j = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        let x = xv.(t.u_idx.(j)) in
        if x <> 0.0 then acc := !acc -. (t.u_val.(j) *. x)
      done;
      if !acc <> 0.0 then begin
        let c = t.perm_c.(k) in
        Sparse_vec.touch into c;
        xv.(c) <- !acc /. t.u_piv.(k)
      end
    done;
    (* product-form etas, oldest first *)
    for l = 0 to t.n_eta - 1 do
      let e = t.etas.(l) in
      let x = xv.(e.e_r) in
      if x <> 0.0 then begin
        let x = x /. e.e_piv in
        xv.(e.e_r) <- x;
        for j = 0 to Array.length e.e_idx - 1 do
          let i = e.e_idx.(j) in
          if xv.(i) = 0.0 then Sparse_vec.touch into i;
          xv.(i) <- xv.(i) +. (-.e.e_val.(j) *. x)
        done
      end
    done
  end

let btran t ~rhs ~into =
  Sparse_vec.clear into;
  if t.m > 0 then begin
    let cv = Sparse_vec.raw rhs in
    (* transposed etas, newest first: only the pivot position moves *)
    for l = t.n_eta - 1 downto 0 do
      let e = t.etas.(l) in
      let acc = ref cv.(e.e_r) in
      for j = 0 to Array.length e.e_idx - 1 do
        let x = cv.(e.e_idx.(j)) in
        if x <> 0.0 then acc := !acc -. (e.e_val.(j) *. x)
      done;
      let z = !acc /. e.e_piv in
      if z <> 0.0 || cv.(e.e_r) <> 0.0 then begin
        Sparse_vec.touch rhs e.e_r;
        cv.(e.e_r) <- z
      end
    done;
    (* forward substitution with U^T, ascending pivot order *)
    let yv = Sparse_vec.raw into in
    for k = 0 to t.m - 1 do
      let x = cv.(t.perm_c.(k)) in
      if x <> 0.0 then begin
        let z = x /. t.u_piv.(k) in
        let r = t.perm_r.(k) in
        Sparse_vec.touch into r;
        yv.(r) <- z;
        for j = t.u_start.(k) to t.u_start.(k + 1) - 1 do
          let i = t.u_idx.(j) in
          if cv.(i) = 0.0 then Sparse_vec.touch rhs i;
          cv.(i) <- cv.(i) +. (-.t.u_val.(j) *. z)
        done
      end
    done;
    (* transposed L ops, newest first: only the source row moves *)
    for k = t.m - 1 downto 0 do
      let s = t.l_start.(k) and e = t.l_start.(k + 1) in
      if e > s then begin
        let acc = ref 0.0 in
        for j = s to e - 1 do
          let x = yv.(t.l_idx.(j)) in
          if x <> 0.0 then acc := !acc +. (t.l_val.(j) *. x)
        done;
        if !acc <> 0.0 then begin
          let i = t.l_src.(k) in
          if yv.(i) = 0.0 then Sparse_vec.touch into i;
          yv.(i) <- yv.(i) +. -. !acc
        end
      end
    done
  end

(* --- eta file ------------------------------------------------------ *)

let append_eta t ~r ~alpha =
  let av = Sparse_vec.raw alpha and pat = Sparse_vec.pattern alpha in
  let nnz = Sparse_vec.nnz alpha in
  let count = ref 0 in
  for k = 0 to nnz - 1 do
    let i = pat.(k) in
    if i <> r && av.(i) <> 0.0 then incr count
  done;
  let e_idx = Array.make !count 0 and e_val = Array.make !count 0.0 in
  let w = ref 0 in
  for k = 0 to nnz - 1 do
    let i = pat.(k) in
    if i <> r && av.(i) <> 0.0 then begin
      e_idx.(!w) <- i;
      e_val.(!w) <- av.(i);
      incr w
    end
  done;
  let e = { e_r = r; e_piv = av.(r); e_idx; e_val } in
  if t.n_eta = Array.length t.etas then begin
    let cap = max 8 (2 * Array.length t.etas) in
    let etas = Array.make cap e in
    Array.blit t.etas 0 etas 0 t.n_eta;
    t.etas <- etas
  end;
  t.etas.(t.n_eta) <- e;
  t.n_eta <- t.n_eta + 1;
  t.eta_nnz <- t.eta_nnz + !count + 1

let eta_count t = t.n_eta

let should_refactor ?eta_limit t =
  let limit =
    match eta_limit with
    | Some l -> max 1 l
    | None -> max 32 (min 128 ((t.m / 4) + 16))
  in
  t.n_eta >= limit || t.eta_nnz > 2 * (t.factor_nnz + t.m)

let stats (t : t) =
  {
    basis_nnz = t.basis_nnz;
    factor_nnz = t.factor_nnz;
    eta_count = t.n_eta;
    eta_nnz = t.eta_nnz;
  }
