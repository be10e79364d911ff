type var = int

type var_kind = Continuous | Integer | Binary

type sense = Le | Ge | Eq

type objective = Minimize | Maximize

type constr = {
  c_name : string;
  c_terms : (float * int) list; (* deduplicated, increasing var index *)
  c_sense : sense;
  c_rhs : float;
}

type t = {
  m_name : string;
  m_dir : objective;
  mutable v_names : string array;
  mutable v_lb : float array;
  mutable v_ub : float array;
  mutable v_obj : float array;
  mutable v_kind : var_kind array;
  mutable nvars : int;
  mutable constrs_rev : constr list;
  mutable nconstrs : int;
  mutable constrs_cache : constr array option;
}

let create ?(name = "lp") dir =
  {
    m_name = name;
    m_dir = dir;
    v_names = Array.make 16 "";
    v_lb = Array.make 16 0.0;
    v_ub = Array.make 16 0.0;
    v_obj = Array.make 16 0.0;
    v_kind = Array.make 16 Continuous;
    nvars = 0;
    constrs_rev = [];
    nconstrs = 0;
    constrs_cache = None;
  }

let name m = m.m_name

let direction m = m.m_dir

let ensure_capacity m =
  let cap = Array.length m.v_lb in
  if m.nvars >= cap then begin
    let extend a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 m.nvars;
      b
    in
    m.v_names <- extend m.v_names "";
    m.v_lb <- extend m.v_lb 0.0;
    m.v_ub <- extend m.v_ub 0.0;
    m.v_obj <- extend m.v_obj 0.0;
    m.v_kind <- extend m.v_kind Continuous
  end

let check_finite what x =
  if Float.is_nan x then
    invalid_arg (Printf.sprintf "Model: NaN %s" what)

let check_coef what x =
  check_finite what x;
  if x = infinity || x = neg_infinity then
    invalid_arg (Printf.sprintf "Model: infinite %s" what)

let add_var m ?name ?lb ?ub ?(obj = 0.0) kind =
  check_coef "objective coefficient" obj;
  Option.iter (check_finite "lower bound") lb;
  Option.iter (check_finite "upper bound") ub;
  ensure_capacity m;
  let i = m.nvars in
  let default_lb, default_ub =
    match kind with
    | Binary -> (0.0, 1.0)
    | Continuous | Integer -> (0.0, infinity)
  in
  let lb = Option.value lb ~default:default_lb in
  let ub = Option.value ub ~default:default_ub in
  let lb, ub =
    match kind with Binary -> (max lb 0.0, min ub 1.0) | _ -> (lb, ub)
  in
  assert (lb <= ub);
  m.v_names.(i) <- (match name with Some s -> s | None -> Printf.sprintf "x%d" i);
  m.v_lb.(i) <- lb;
  m.v_ub.(i) <- ub;
  m.v_obj.(i) <- obj;
  m.v_kind.(i) <- kind;
  m.nvars <- m.nvars + 1;
  i

let dedup_terms terms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, v) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (cur +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0.0 then acc else (c, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let add_constr m ?name terms sense rhs =
  check_coef "right-hand side" rhs;
  List.iter
    (fun (c, v) ->
      check_coef "constraint coefficient" c;
      assert (0 <= v && v < m.nvars))
    terms;
  let c_name =
    match name with Some s -> s | None -> Printf.sprintf "c%d" m.nconstrs
  in
  let c = { c_name; c_terms = dedup_terms terms; c_sense = sense; c_rhs = rhs } in
  m.constrs_rev <- c :: m.constrs_rev;
  m.nconstrs <- m.nconstrs + 1;
  m.constrs_cache <- None

let check_var m v = assert (0 <= v && v < m.nvars)

let set_bounds m v ~lb ~ub =
  check_var m v;
  assert (lb <= ub);
  m.v_lb.(v) <- lb;
  m.v_ub.(v) <- ub

let fix m v x = set_bounds m v ~lb:x ~ub:x

let var_index v = v

let var_of_index m i =
  check_var m i;
  i

let num_vars m = m.nvars

let num_constrs m = m.nconstrs

let var_name m v =
  check_var m v;
  m.v_names.(v)

let var_lb m v =
  check_var m v;
  m.v_lb.(v)

let var_ub m v =
  check_var m v;
  m.v_ub.(v)

let var_obj m v =
  check_var m v;
  m.v_obj.(v)

let var_kind m v =
  check_var m v;
  m.v_kind.(v)

let constrs m =
  match m.constrs_cache with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev m.constrs_rev) in
    m.constrs_cache <- Some a;
    a

let constr m i =
  let a = constrs m in
  assert (0 <= i && i < Array.length a);
  a.(i)

let constr_terms m i = (constr m i).c_terms

let constr_name m i = (constr m i).c_name

let iter_constrs m f =
  Array.iteri (fun i c -> f i c.c_terms c.c_sense c.c_rhs) (constrs m)

let columns m =
  let cs = constrs m in
  (* two passes: size each column exactly, then fill in row order *)
  let counts = Array.make m.nvars 0 in
  Array.iter
    (fun c ->
      List.iter (fun (_, v) -> counts.(v) <- counts.(v) + 1) c.c_terms)
    cs;
  let cols =
    Array.init m.nvars (fun v ->
        (Array.make counts.(v) 0, Array.make counts.(v) 0.0))
  in
  let fill = Array.make m.nvars 0 in
  Array.iteri
    (fun i c ->
      List.iter
        (fun (coef, v) ->
          let rows, coefs = cols.(v) in
          let k = fill.(v) in
          rows.(k) <- i;
          coefs.(k) <- coef;
          fill.(v) <- k + 1)
        c.c_terms)
    cs;
  cols

let value_feasible ?(tol = 1e-6) m x =
  assert (Array.length x = m.nvars);
  let bounds_ok = ref true in
  for v = 0 to m.nvars - 1 do
    if x.(v) < m.v_lb.(v) -. tol || x.(v) > m.v_ub.(v) +. tol then
      bounds_ok := false;
    (match m.v_kind.(v) with
    | Continuous -> ()
    | Integer | Binary ->
      if abs_float (x.(v) -. Float.round x.(v)) > tol then bounds_ok := false)
  done;
  let rows_ok = ref true in
  iter_constrs m (fun _ terms sense rhs ->
      let lhs = List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0.0 terms in
      let scale = 1.0 +. abs_float rhs in
      let ok =
        match sense with
        | Le -> lhs <= rhs +. (tol *. scale)
        | Ge -> lhs >= rhs -. (tol *. scale)
        | Eq -> abs_float (lhs -. rhs) <= tol *. scale
      in
      if not ok then rows_ok := false);
  !bounds_ok && !rows_ok

let objective_value m x =
  let acc = ref 0.0 in
  for v = 0 to m.nvars - 1 do
    acc := !acc +. (m.v_obj.(v) *. x.(v))
  done;
  !acc

let pp_sense ppf = function
  | Le -> Format.pp_print_string ppf "<="
  | Ge -> Format.pp_print_string ppf ">="
  | Eq -> Format.pp_print_string ppf "="

let pp ppf m =
  let dir = match m.m_dir with Minimize -> "minimize" | Maximize -> "maximize" in
  Format.fprintf ppf "@[<v>%s %s:@," m.m_name dir;
  Format.fprintf ppf "  obj:";
  for v = 0 to m.nvars - 1 do
    if m.v_obj.(v) <> 0.0 then
      Format.fprintf ppf " %+g %s" m.v_obj.(v) m.v_names.(v)
  done;
  Format.fprintf ppf "@,";
  iter_constrs m (fun i terms sense rhs ->
      Format.fprintf ppf "  %s:" (constr_name m i);
      List.iter
        (fun (c, v) -> Format.fprintf ppf " %+g %s" c m.v_names.(v))
        terms;
      Format.fprintf ppf " %a %g@," pp_sense sense rhs);
  for v = 0 to m.nvars - 1 do
    let kind =
      match m.v_kind.(v) with
      | Continuous -> ""
      | Integer -> " int"
      | Binary -> " bin"
    in
    Format.fprintf ppf "  %g <= %s <= %g%s@," m.v_lb.(v) m.v_names.(v)
      m.v_ub.(v) kind
  done;
  Format.fprintf ppf "@]"
