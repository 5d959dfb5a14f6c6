type t = { rows : int; cols : int; data : Cx.t array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: empty matrix";
  { rows; cols; data = Array.make (rows * cols) Cx.zero }

let identity n =
  let m = create n n in
  for k = 0 to n - 1 do
    m.data.((k * n) + k) <- Cx.one
  done;
  m

let rows m = m.rows
let cols m = m.cols
let get m r c = m.data.((r * m.cols) + c)
let set m r c v = m.data.((r * m.cols) + c) <- v

let of_rows row_lists =
  match row_lists with
  | [] -> invalid_arg "Matrix.of_rows: empty matrix"
  | first :: _ ->
    let cols = List.length first in
    let rows = List.length row_lists in
    let m = create rows cols in
    List.iteri
      (fun r row ->
        if List.length row <> cols then invalid_arg "Matrix.of_rows: ragged rows";
        List.iteri (fun c v -> set m r c v) row)
      row_lists;
    m

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: shape mismatch";
  { a with data = Array.map2 f a.data b.data }

let add a b = map2 Cx.add a b

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for r = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let ark = get a r k in
      if not (Cx.is_zero ark) then
        for c = 0 to b.cols - 1 do
          set m r c (Cx.add (get m r c) (Cx.mul ark (get b k c)))
        done
    done
  done;
  m

let scale s m = { m with data = Array.map (Cx.mul s) m.data }

let kron a b =
  let m = create (a.rows * b.rows) (a.cols * b.cols) in
  for ar = 0 to a.rows - 1 do
    for ac = 0 to a.cols - 1 do
      let v = get a ar ac in
      if not (Cx.is_zero v) then
        for br = 0 to b.rows - 1 do
          for bc = 0 to b.cols - 1 do
            set m ((ar * b.rows) + br) ((ac * b.cols) + bc)
              (Cx.mul v (get b br bc))
          done
        done
    done
  done;
  m

let transpose m =
  let t = create m.cols m.rows in
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      set t c r (get m r c)
    done
  done;
  t

let dagger m =
  let t = transpose m in
  { t with data = Array.map Cx.conj t.data }

let approx_equal ?(eps = Tolerance.default_eps) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Cx.approx_equal ~eps x y) a.data b.data

let equal_up_to_global_phase ?(eps = Tolerance.default_eps) a b =
  if a.rows <> b.rows || a.cols <> b.cols then false
  else
    (* Find the first entry of b with significant magnitude and derive the
       candidate phase from the matching entry of a. *)
    let n = Array.length a.data in
    let rec find k =
      if k >= n then None
      else if Cx.norm b.data.(k) > eps then Some k
      else if Cx.norm a.data.(k) > eps then Some k
      else find (k + 1)
    in
    match find 0 with
    | None -> true
    | Some k ->
      if Cx.norm b.data.(k) <= eps then false
      else
        let phase = Cx.div a.data.(k) b.data.(k) in
        if abs_float (Cx.norm phase -. 1.0) > 1e-6 then false
        else approx_equal ~eps a (scale phase b)

let is_unitary ?(eps = Tolerance.default_eps) m =
  m.rows = m.cols && approx_equal ~eps (mul m (dagger m)) (identity m.rows)

let is_identity ?(eps = Tolerance.default_eps) m =
  m.rows = m.cols && approx_equal ~eps m (identity m.rows)

let pp fmt m =
  for r = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for c = 0 to m.cols - 1 do
      if c > 0 then Format.fprintf fmt ", ";
      Cx.pp fmt (get m r c)
    done;
    Format.fprintf fmt "]@\n"
  done

let to_string m = Format.asprintf "%a" pp m
