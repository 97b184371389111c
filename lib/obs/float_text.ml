(* Exact [%.17g] in native-int arithmetic.

   For |v| = f·2^e (f < 2^53) with decimal exponent X, the 17 significant
   digits are q = round(f·5^s·2^(e+s)) with s = 16 - X.  Inside the window
   1e-10 <= |v| < 1e17, s stays in [0, 26], so 5^s < 2^61 fits a native int
   and f·5^s fits two 60-bit halves; the rounding needs only the first
   dropped bit and whether any later one is set.  Everything else (zeros,
   subnormals, non-finite values, other magnitudes) goes to Printf, which
   is also the reference the tests compare against. *)

let lo_limit = 1e-10
let hi_limit = 1e17
let e16 = 10_000_000_000_000_000
let e17 = 100_000_000_000_000_000

(* pow10.(j + 10) = 10^j for j in [-10, 17]: corrects the exponent estimate.
   The negative powers are the nearest doubles, so the corrected exponent
   can still be one too high; [digits] then steps it down. *)
let pow10 =
  [|
    1e-10; 1e-9; 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1e0; 1e1; 1e2; 1e3; 1e4; 1e5;
    1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16; 1e17;
  |]

let pow5 =
  let table = Array.make 27 1 in
  for s = 1 to 26 do
    table.(s) <- 5 * table.(s - 1)
  done;
  table

(* "00" "01" ... "99": two digits per lookup. *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else (i / 2) mod 10))

let mask30 = (1 lsl 30) - 1

(* 4·⌊f·5^s·2^t⌋ + 2·round + sticky: [round] is the first bit dropped by
   the floor and [sticky] whether any later dropped bit is set.  The caller
   keeps the floor below 10^18, so the result fits a native int. *)
let scaled f s t =
  let p = Array.unsafe_get pow5 s in
  if t >= 0 then (f * p) lsl (t + 2)
  else begin
    (* f·p = hi·2^60 + lo over 30-bit limbs; each partial product is below
       2^61 and each column sum below 2^62. *)
    let f0 = f land mask30 and f1 = f lsr 30 in
    let p0 = p land mask30 and p1 = p lsr 30 in
    let c0 = f0 * p0 in
    let c1 = (f0 * p1) + (f1 * p0) + (c0 lsr 30) in
    let lo = ((c1 land mask30) lsl 30) lor (c0 land mask30) in
    let hi = (f1 * p1) + (c1 lsr 30) in
    (* Shift right by m = -t - 1: bit 0 is then the round bit, and the m
       bits shifted out fold into sticky. *)
    let m = -t - 1 in
    if m < 60 then
      (((hi lsl (60 - m)) lor (lo lsr m)) lsl 1) lor Bool.to_int (lo land ((1 lsl m) - 1) <> 0)
    else
      ((hi lsr (m - 60)) lsl 1)
      lor Bool.to_int (lo <> 0 || hi land ((1 lsl (m - 60)) - 1) <> 0)
  end

let[@inline] write2 bytes i n =
  Bytes.unsafe_set bytes i (String.unsafe_get digit_pairs (2 * n));
  Bytes.unsafe_set bytes (i + 1) (String.unsafe_get digit_pairs ((2 * n) + 1))

let[@inline] write4 bytes i n =
  let h = n / 100 in
  write2 bytes i h;
  write2 bytes (i + 2) (n - (100 * h))

let[@inline] write8 bytes i n =
  let h = n / 10_000 in
  write4 bytes i h;
  write4 bytes (i + 4) (n - (10_000 * h))

(* The 17 digits of q in [10^16, 10^17) at bytes.[8 .. 24]. *)
let write17 bytes q =
  let lead = q / e16 in
  let rest = q - (lead * e16) in
  let h = rest / 100_000_000 in
  Bytes.unsafe_set bytes 8 (Char.unsafe_chr (48 + lead));
  write8 bytes 9 h;
  write8 bytes 17 (rest - (h * 100_000_000))

let out_of_range = max_int

(* Writes the 17 significant digits of f·2^e, rounded half to even, and
   returns their decimal exponent; [x] is within one of it.  Returns
   [out_of_range] when 5^(16 - x) would not fit. *)
let rec digits bytes f e x =
  let s = 16 - x in
  if s < 0 || s > 26 then out_of_range
  else
    let r = scaled f s (e + s) in
    let q = r lsr 2 in
    if q < e16 then digits bytes f e (x - 1)
    else if q >= e17 then digits bytes f e (x + 1)
    else begin
      let q = if r land 2 <> 0 && (r land 1 <> 0 || q land 1 <> 0) then q + 1 else q in
      if q = e17 then begin
        write17 bytes e16;
        x + 1
      end
      else begin
        write17 bytes q;
        x
      end
    end

let fallback buffer v = Buffer.add_string buffer (Printf.sprintf "%.17g" v)

let add_g17 buffer v =
  let a = Float.abs v in
  if not (a >= lo_limit && a < hi_limit) then fallback buffer v
  else begin
    let bits = Int64.to_int (Int64.bits_of_float a) in
    let be = bits lsr 52 in
    let f = (bits land ((1 lsl 52) - 1)) lor (1 lsl 52) in
    let k = ((be - 1023) * 78913) asr 18 in
    let x = if a >= Array.unsafe_get pow10 (k + 11) then k + 1 else k in
    let bytes = Bytes.create 32 in
    let x = digits bytes f (be - 1075) x in
    if x = out_of_range then fallback buffer v
    else begin
      (* Significant digits left once trailing zeros are stripped. *)
      let last = ref 24 in
      while Bytes.unsafe_get bytes !last = '0' do
        decr last
      done;
      let nd = !last - 7 in
      let start = ref 7 and stop = ref (8 + nd) in
      if x >= 0 && x < 17 then begin
        (* Fixed notation: x + 1 integer digits, a point only if a
           fraction follows. *)
        if nd <= x + 1 then begin
          start := 8;
          stop := 9 + x
        end
        else begin
          Bytes.blit bytes 8 bytes 7 (x + 1);
          Bytes.unsafe_set bytes (8 + x) '.'
        end
      end
      else if x < 0 && x >= -4 then begin
        (* "0." and -x - 1 zeros before the digits. *)
        start := 7 + x;
        Bytes.fill bytes !start (1 - x) '0';
        Bytes.unsafe_set bytes (8 + x) '.'
      end
      else begin
        (* d[.ddd]e±XX *)
        Bytes.unsafe_set bytes 7 (Bytes.unsafe_get bytes 8);
        if nd = 1 then stop := 8 else Bytes.unsafe_set bytes 8 '.';
        Bytes.unsafe_set bytes !stop 'e';
        Bytes.unsafe_set bytes (!stop + 1) (if x < 0 then '-' else '+');
        write2 bytes (!stop + 2) (abs x);
        stop := !stop + 4
      end;
      if v < 0. then begin
        decr start;
        Bytes.unsafe_set bytes !start '-'
      end;
      Buffer.add_subbytes buffer bytes !start (!stop - !start)
    end
  end

let g17 v =
  let buffer = Buffer.create 24 in
  add_g17 buffer v;
  Buffer.contents buffer
