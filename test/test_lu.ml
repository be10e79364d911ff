(* Property tests for the sparse LU basis factorization (Lu), checked
   against two references that share no code with it: the explicit
   residual of the basis itself, and a small dense Gaussian elimination
   with partial pivoting written below.

   Random nonsingular bases come in two families:
   - network-like: ±1 columns of a rooted spanning tree's incidence
     matrix (unit triangular up to permutation, like the flow bases of
     the paper's PPM/PPME programs), with rows and positions shuffled;
   - mixed-scale: a sparse diagonally dominant matrix with row and
     column scalings over four orders of magnitude.

   For each basis, FTRAN, BTRAN and unit-row BTRAN (a row of B^-1, the
   dual simplex's pricing row) must solve their systems; then random
   column replacements go through the eta file and the solves are
   re-checked after every one, until [should_refactor] fires. A
   rank-deficient basis must raise [Lu.Singular].

   The base seed comes from MONPOS_PROP_SEED (default 1), as in
   test_simplex_prop. *)

module Lu = Monpos_lp.Lu
module Sparse_vec = Monpos_lp.Sparse_vec
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 150

(* a basis as dense columns: [b.(r)] is the column at position [r],
   indexed by constraint row *)
type basis = float array array

let factor (b : basis) =
  let m = Array.length b in
  Lu.factor ~m ~col:(fun r f ->
      Array.iteri (fun i a -> if a <> 0.0 then f i a) b.(r))

(* shuffle rows and positions of a column set *)
let permute rng (cols : basis) : basis =
  let m = Array.length cols in
  let rows = Array.init m Fun.id and pos = Array.init m Fun.id in
  Prng.shuffle rng rows;
  Prng.shuffle rng pos;
  Array.init m (fun r ->
      let c = cols.(pos.(r)) in
      let out = Array.make m 0.0 in
      Array.iteri (fun i a -> out.(rows.(i)) <- a) c;
      out)

let network_basis rng m : basis =
  let cols =
    Array.init m (fun j ->
        let c = Array.make m 0.0 in
        c.(j) <- 1.0;
        if j > 0 then c.(Prng.int rng j) <- -1.0;
        c)
  in
  permute rng cols

let mixed_scale_basis rng m : basis =
  let scale () = 10.0 ** (Prng.float rng 4.0 -. 2.0) in
  let row_scale = Array.init m (fun _ -> scale ()) in
  let col_scale = Array.init m (fun _ -> scale ()) in
  let cols =
    Array.init m (fun j ->
        let c = Array.make m 0.0 in
        let off = ref 0.0 in
        for i = 0 to m - 1 do
          if i <> j && Prng.int rng m < 3 then begin
            let a = Prng.float rng 2.0 -. 1.0 in
            c.(i) <- a;
            off := !off +. abs_float a
          end
        done;
        (* column diagonal dominance keeps the unscaled matrix well
           conditioned; the scalings then spread the magnitudes *)
        c.(j) <- (if Prng.bool rng then 1.0 else -1.0) *. (1.0 +. !off);
        c)
  in
  permute rng
    (Array.mapi
       (fun j c -> Array.mapi (fun i a -> a *. row_scale.(i) *. col_scale.(j)) c)
       cols)

(* ---- dense oracle ------------------------------------------------- *)

(* Solve [a x = rhs] by Gaussian elimination with partial pivoting;
   [a] is row-major and is not modified. *)
let dense_solve (a : float array array) rhs =
  let m = Array.length rhs in
  let a = Array.map Array.copy a and x = Array.copy rhs in
  for k = 0 to m - 1 do
    let p = ref k in
    for i = k + 1 to m - 1 do
      if abs_float a.(i).(k) > abs_float a.(!p).(k) then p := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- t;
    let t = x.(k) in
    x.(k) <- x.(!p);
    x.(!p) <- t;
    for i = k + 1 to m - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for k = m - 1 downto 0 do
    let acc = ref x.(k) in
    for j = k + 1 to m - 1 do
      acc := !acc -. (a.(k).(j) *. x.(j))
    done;
    x.(k) <- !acc /. a.(k).(k)
  done;
  x

(* B as a row-major matrix (rows = constraint rows, columns =
   positions) and its transpose *)
let rows_of (b : basis) =
  let m = Array.length b in
  Array.init m (fun i -> Array.init m (fun r -> b.(r).(i)))

let norm v = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0.0 v

(* ---- checks ------------------------------------------------------- *)

let to_vec v =
  let s = Sparse_vec.create (Array.length v) in
  Array.iteri (fun i x -> if x <> 0.0 then Sparse_vec.set s i x) v;
  s

let of_vec m s = Array.init m (Sparse_vec.get s)

(* a random sparse right-hand side with at least one nonzero *)
let random_rhs rng m =
  let v = Array.make m 0.0 in
  v.(Prng.int rng m) <- Prng.float rng 4.0 -. 2.0;
  for i = 0 to m - 1 do
    if Prng.int rng 4 = 0 then v.(i) <- Prng.float rng 4.0 -. 2.0
  done;
  v

(* |M x - rhs| small relative to |M| |x| + |rhs|, and x close to the
   dense oracle's answer *)
let check_solve ~what (mat : float array array) rhs x =
  let m = Array.length rhs in
  let mat_norm =
    Array.fold_left
      (fun acc row -> Float.max acc (Array.fold_left (fun s a -> s +. abs_float a) 0.0 row))
      0.0 mat
  in
  let resid =
    norm
      (Array.init m (fun i ->
           let acc = ref (-.rhs.(i)) in
           Array.iteri (fun j a -> acc := !acc +. (a *. x.(j))) mat.(i);
           !acc))
  in
  let scale = (mat_norm *. norm x) +. norm rhs in
  if resid > 1e-9 *. scale then
    Alcotest.failf "%s: residual %g exceeds 1e-9 * %g" what resid scale;
  let oracle = dense_solve mat rhs in
  let diff = norm (Array.map2 ( -. ) x oracle) in
  if diff > 1e-7 *. (norm oracle +. 1e-300) then
    Alcotest.failf "%s: differs from the dense oracle by %g (|x| = %g)" what
      diff (norm oracle)

let check_all ~what rng lu (b : basis) =
  let m = Array.length b in
  let bm = rows_of b in
  let bt = Array.map Array.copy b in
  let into = Sparse_vec.create m in
  (* FTRAN: B x = rhs, rhs by row, x by position *)
  let rhs = random_rhs rng m in
  Lu.ftran lu ~rhs:(to_vec rhs) ~into;
  check_solve ~what:(what ^ " ftran") bm rhs (of_vec m into);
  (* BTRAN: B^T y = c, c by position, y by row *)
  let c = random_rhs rng m in
  Lu.btran lu ~rhs:(to_vec c) ~into;
  check_solve ~what:(what ^ " btran") bt c (of_vec m into);
  (* unit-row BTRAN: row r of B^-1 *)
  let r = Prng.int rng m in
  let e = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
  Lu.btran lu ~rhs:(to_vec e) ~into;
  check_solve ~what:(Printf.sprintf "%s row %d of B^-1" what r) bt e
    (of_vec m into)

let random_basis rng case =
  let m = 1 + Prng.int rng 40 in
  if case mod 2 = 0 then ("network", network_basis rng m)
  else ("mixed-scale", mixed_scale_basis rng m)

let test_solves () =
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 2_750_159) + case) in
    let family, b = random_basis rng case in
    let lu = factor b in
    check_all ~what:(Printf.sprintf "case %d (%s)" case family) rng lu b
  done

(* Replace basis columns through the eta file, as the simplex does:
   alpha = B^-1 a for the entering column a, pivot at a position whose
   alpha entry is safely nonzero. *)
let test_eta_updates () =
  let fired = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 3_571_429) + case) in
    let family, b = random_basis rng case in
    let m = Array.length b in
    let lu = factor b in
    let what k = Printf.sprintf "case %d (%s) after %d etas" case family k in
    let steps = ref 0 in
    let attempts = ref 0 in
    while (not (Lu.should_refactor lu)) && !attempts < 2_000 do
      incr attempts;
      let a =
        if family = "network" then begin
          (* an arc column: +1 at one row, -1 at another (or a root
             column when m = 1) *)
          let a = Array.make m 0.0 in
          let i = Prng.int rng m in
          a.(i) <- 1.0;
          if m > 1 then a.((i + 1 + Prng.int rng (m - 1)) mod m) <- -1.0;
          a
        end
        else Array.map (fun x -> x *. (10.0 ** (Prng.float rng 2.0 -. 1.0))) (random_rhs rng m)
      in
      let alpha = Sparse_vec.create m in
      Lu.ftran lu ~rhs:(to_vec a) ~into:alpha;
      let big = norm (of_vec m alpha) in
      let r = Prng.int rng m in
      (* the simplex ratio test only pivots on entries bounded away
         from zero; mimic its piv_tol relative to the column *)
      if abs_float (Sparse_vec.get alpha r) > 1e-2 *. big then begin
        Lu.append_eta lu ~r ~alpha;
        b.(r) <- a;
        incr steps;
        Alcotest.(check int) (what !steps ^ ": eta count") !steps
          (Lu.eta_count lu);
        check_all ~what:(what !steps) rng lu b
      end
    done;
    if Lu.should_refactor lu then incr fired;
    (* a fresh factorization of the updated basis agrees as well *)
    check_all ~what:(what !steps ^ " refactorized") rng (factor b) b
  done;
  Alcotest.(check int) "should_refactor fired for every basis" cases !fired

(* Rank-deficient bases: an all-zero column, a repeated column, a
   column that is an exact integer combination of two others, and a
   row no column touches. *)
let test_singular () =
  for case = 0 to 59 do
    let rng = Prng.create ((prop_seed * 5_206_837) + case) in
    let m = 3 + Prng.int rng 20 in
    let b = network_basis rng m in
    let i = Prng.int rng m in
    let j = (i + 1 + Prng.int rng (m - 1)) mod m in
    let k = (j + 1 + Prng.int rng (m - 2)) mod m in
    let k = if k = i then (k + 1) mod m else k in
    let kind = case mod 4 in
    (match kind with
    | 0 -> b.(i) <- Array.make m 0.0
    | 1 -> b.(i) <- Array.copy b.(j)
    | 2 -> b.(k) <- Array.map2 (fun x y -> x +. (2.0 *. y)) b.(i) b.(j)
    | _ ->
      let row = Prng.int rng m in
      Array.iter (fun c -> c.(row) <- 0.0) b);
    match factor b with
    | exception Lu.Singular -> ()
    | _ ->
      Alcotest.failf "case %d (kind %d, m = %d): rank-deficient basis factorized"
        case kind m
  done

(* ---- workspace reuse ------------------------------------------- *)

(* Equal-magnitude unit columns, half of them with one more +-1 entry
   above the diagonal: most columns are singletons or doubletons of the
   same count and the same |a|, so the pivot order rests on the
   Markowitz tie rules alone. Unit upper triangular, hence
   nonsingular. *)
let tie_heavy_basis rng m : basis =
  let cols =
    Array.init m (fun j ->
        let c = Array.make m 0.0 in
        c.(j) <- 1.0;
        if j > 0 && j mod 2 = 0 then
          c.(Prng.int rng j) <- (if Prng.bool rng then 1.0 else -1.0);
        c)
  in
  permute rng cols

(* The fill of the factorization, then FTRAN, BTRAN and unit-row BTRAN
   of right-hand sides fixed by [seed] as raw float bits; the solves are
   also checked against the residual and the dense oracle *)
let fingerprint ~what seed (b : basis) =
  let m = Array.length b in
  let lu = factor b in
  if m = 0 then []
  else begin
    let rng = Prng.create seed in
    check_all ~what (Prng.create seed) lu b;
    let into = Sparse_vec.create m in
    let bits () =
      Array.to_list
        (Array.init m (fun i -> Int64.bits_of_float (Sparse_vec.get into i)))
    in
    Lu.ftran lu ~rhs:(to_vec (random_rhs rng m)) ~into;
    let f = bits () in
    Lu.btran lu ~rhs:(to_vec (random_rhs rng m)) ~into;
    let g = bits () in
    let r = Prng.int rng m in
    Lu.btran lu
      ~rhs:(to_vec (Array.init m (fun i -> if i = r then 1.0 else 0.0)))
      ~into;
    Int64.of_int (Lu.stats lu).factor_nnz :: (f @ g @ bits ())
  end

(* A numerically rank-deficient basis: five columns are single entries
   below the dead-column threshold, on five rows no other column
   touches. Elimination retires every other column and then raises
   [Singular] with those five still counted in the pivot search. *)
let singular_basis rng m : basis =
  let b = mixed_scale_basis rng m in
  let rows = Array.init m Fun.id and cols = Array.init m Fun.id in
  Prng.shuffle rng rows;
  Prng.shuffle rng cols;
  for k = 0 to 4 do
    Array.iter (fun c -> c.(rows.(k)) <- 0.0) b
  done;
  for k = 0 to 4 do
    b.(cols.(k)) <- Array.init m (fun i -> if i = rows.(k) then 1e-15 else 0.0)
  done;
  b

(* Factorizations share scratch space: a basis must factor to the same
   bits whatever was factored before it on the same domain, including a
   larger basis, a smaller one, an empty one and one that raised
   [Singular] part way through elimination. *)
let test_workspace_reuse () =
  let rng = Prng.create ((prop_seed * 7_368_787) + 1) in
  let bases =
    [|
      ("network 300", network_basis rng 300);
      ("tie-heavy 20", tie_heavy_basis rng 20);
      ("empty", [||]);
      ("mixed-scale 120", mixed_scale_basis rng 120);
      ("tie-heavy 300", tie_heavy_basis rng 300);
      ("mixed-scale 300", mixed_scale_basis rng 300);
    |]
  in
  let sing = singular_basis rng 150 in
  let seed_of id = (prop_seed * 100) + id in
  let first =
    Array.mapi (fun id (what, b) -> fingerprint ~what (seed_of id) b) bases
  in
  let expect_singular () =
    match factor sing with
    | exception Lu.Singular -> ()
    | _ -> Alcotest.fail "rank-deficient basis factorized"
  in
  (* m = 300, 20, 0, singular, 120, ...: growing and shrinking, and
     mixed-scale bases, whose rounding shows any change of pivot order,
     straight after a singular one *)
  List.iter
    (fun id ->
      if id < 0 then expect_singular ()
      else begin
        let what, b = bases.(id) in
        Alcotest.(check (list int64))
          (what ^ ": same bits as its first factorization")
          first.(id)
          (fingerprint ~what (seed_of id) b)
      end)
    [ 0; 1; 2; -1; 3; 0; 4; -1; 5; 1; -1; 3; 2; 4; 0; -1; 5; 1 ];
  (* the workspace now holds 300 rows; a row index past m is still
     rejected *)
  match Lu.factor ~m:20 ~col:(fun r f -> f (if r = 7 then 25 else r) 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "row index 25 accepted for m = 20"

(* Each domain has its own workspace: factoring one basis family on a
   spawned domain while this one factors another gives the sequential
   answers on both. *)
let test_workspace_domains () =
  let family seed make =
    let rng = Prng.create ((prop_seed * 9_737_333) + seed) in
    List.init 24 (fun i ->
        let m = 1 + Prng.int rng 200 in
        (Printf.sprintf "family %d basis %d (m = %d)" seed i m, make rng m))
  in
  let a = family 1 tie_heavy_basis and b = family 2 mixed_scale_basis in
  let run fam =
    List.mapi (fun i (what, basis) -> fingerprint ~what (prop_seed + i) basis) fam
  in
  let seq_a = run a and seq_b = run b in
  let d = Domain.spawn (fun () -> run a) in
  let par_b = run b in
  let par_a = Domain.join d in
  Alcotest.(check (list (list int64))) "spawned domain matches sequential" seq_a par_a;
  Alcotest.(check (list (list int64))) "main domain matches sequential" seq_b par_b

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "ftran/btran vs residual and dense oracle (seed %d)"
         prop_seed)
      `Quick test_solves;
    Alcotest.test_case
      (Printf.sprintf "eta updates stay exact until refactor (seed %d)"
         prop_seed)
      `Quick test_eta_updates;
    Alcotest.test_case "rank-deficient basis raises Singular" `Quick
      test_singular;
    Alcotest.test_case
      (Printf.sprintf "reused workspace factors bit-identically (seed %d)"
         prop_seed)
      `Quick test_workspace_reuse;
    Alcotest.test_case
      (Printf.sprintf "per-domain workspaces match sequential (seed %d)"
         prop_seed)
      `Quick test_workspace_domains;
  ]
