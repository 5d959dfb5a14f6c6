type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let of_float r = { Complex.re = r; im = 0.0 }
let make re im = { Complex.re = re; im }
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let conj = Complex.conj
let norm = Complex.norm
let scale s z = { Complex.re = s *. z.Complex.re; im = s *. z.Complex.im }
let inv_sqrt2 = 1.0 /. sqrt 2.0

let omega k =
  (* Exact values at the eight roots keep repeated products stable. *)
  let k = ((k mod 8) + 8) mod 8 in
  match k with
  | 0 -> one
  | 1 -> make inv_sqrt2 inv_sqrt2
  | 2 -> i
  | 3 -> make (-.inv_sqrt2) inv_sqrt2
  | 4 -> make (-1.0) 0.0
  | 5 -> make (-.inv_sqrt2) (-.inv_sqrt2)
  | 6 -> make 0.0 (-1.0)
  | _ -> make inv_sqrt2 (-.inv_sqrt2)

let approx_equal ?(eps = Tolerance.default_eps) a b =
  abs_float (a.Complex.re -. b.Complex.re) <= eps
  && abs_float (a.Complex.im -. b.Complex.im) <= eps

let is_zero ?(eps = Tolerance.default_eps) z = approx_equal ~eps z zero
let is_one ?(eps = Tolerance.default_eps) z = approx_equal ~eps z one

let grid = 1e10

let round_part x =
  let r = Float.round (x *. grid) /. grid in
  (* Avoid the two distinct zero keys. *)
  if r = 0.0 then 0.0 else r

let round_key z = (round_part z.Complex.re, round_part z.Complex.im)

let to_string z =
  let re = z.Complex.re and im = z.Complex.im in
  if abs_float im < 1e-12 then Printf.sprintf "%g" re
  else if abs_float re < 1e-12 then Printf.sprintf "%gi" im
  else Printf.sprintf "%g%+gi" re im

let pp fmt z = Format.pp_print_string fmt (to_string z)
