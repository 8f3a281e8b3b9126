type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  (* 53 random bits scaled into [0,1). *)
  let unit = Int64.to_float mantissa /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
