(* 32-bit range coder (Subbotin style) with byte-wise renormalization. *)

let top = 1 lsl 24
let bot = 1 lsl 16
let mask32 = 0xFFFFFFFF

(* The adaptive model is the coder's inner loop: [cum_below] on encode
   and [find] on decode run once per symbol. The naive per-symbol scan
   is O(alphabet); a Fenwick (binary-indexed) tree makes both O(log
   alphabet) while the model state — per-symbol frequencies and their
   total — evolves identically, so every emitted byte is unchanged
   (DESIGN.md §10). The scan implementation survives in
   test/test_zip.ml as the differential-test oracle.

   Storage is uint16 cells in [Bytes], not int arrays: every frequency
   and every Fenwick node is bounded by the total, which the halving
   rule keeps under [max_total] = 65535 at rest, so 16 bits always
   suffice. That shrinks a 256-symbol model from ~4 KB to ~1 KB, so
   the models an order-2 call touches stay cache-resident even on
   inputs that reach most of the 4096 context slots; at int-array size
   that working set (~16 MB) turned every O(log n) probe into a cache
   miss, slower than the scan it replaced. A call holds only the models
   it touches ({!bank}); DESIGN.md §10 has the measurements. *)
module Model = struct
  type t = {
    n : int;
    freqs : Bytes.t;  (* n uint16 cells, per-symbol frequency >= 1 *)
    tree : Bytes.t;   (* n+1 uint16 cells, 1-based Fenwick over freqs *)
    mutable total : int;
    start_bit : int;  (* first probe width for the descent, see create *)
  }

  let max_total = bot - 1

  (* 16-bit cell access; offsets are cell index * 2, in range by
     construction (hot-path indices are bounded by [n]). The compiler
     primitives load/store one unsigned 16-bit cell — native endian,
     which is fine for state that never leaves the process. *)
  external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
  external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

  (* rebuild [tree] from [freqs] in O(n); every cell of [tree] is
     overwritten (pass 1) before the in-place prefix propagation *)
  let rebuild m =
    for i = 1 to m.n do
      set16 m.tree (i * 2) (get16 m.freqs ((i - 1) * 2))
    done;
    for i = 1 to m.n - 1 do
      let j = i + (i land -i) in
      if j <= m.n then set16 m.tree (j * 2) (get16 m.tree (j * 2) + get16 m.tree (i * 2))
    done

  let create n =
    (* n > max_total would overflow the uint16 cells — and the coder
       itself, whose range division needs total < 2^16 *)
    if n <= 0 || n > max_total then invalid_arg "Range_coder.Model.create";
    let top_bit = ref 1 in
    while !top_bit * 2 <= n do top_bit := !top_bit * 2 done;
    (* For a power-of-two alphabet the root probe at [idx + n] reads
       tree node n = total, and total > target always, so that branch is
       never taken: start the descent one bit lower. *)
    let start_bit = if !top_bit = n then !top_bit lsr 1 else !top_bit in
    let m =
      { n; freqs = Bytes.make (n * 2) '\000';
        tree = Bytes.make ((n + 1) * 2) '\000';
        total = n; start_bit }
    in
    for i = 0 to n - 1 do set16 m.freqs (i * 2) 1 done;
    rebuild m;
    m

  (* Halve every frequency (the add-one-and-shift rule), with [extra]
     added to [esym]'s frequency first: the pre-halve frequency can
     transiently exceed 16 bits, so it lives in an immediate int here
     and is never stored un-halved. *)
  let halve_with m esym extra =
    let tot = ref 0 in
    for i = 0 to m.n - 1 do
      let f = get16 m.freqs (i * 2) + if i = esym then extra else 0 in
      let f' = (f + 1) / 2 in
      set16 m.freqs (i * 2) f';
      tot := !tot + f'
    done;
    m.total <- !tot;
    rebuild m

  (* The three per-symbol operations are the coder's inner loop across
     thousands of context models; they are written as tail recursions
     over immediate ints (no ref cells, so no per-symbol allocation). *)
  let update m sym =
    let nt = m.total + 32 in
    if nt < max_total then begin
      set16 m.freqs (sym * 2) (get16 m.freqs (sym * 2) + 32);
      let t = m.tree and n = m.n in
      let rec add i =
        if i <= n then begin
          set16 t (i * 2) (get16 t (i * 2) + 32);
          add (i + (i land -i))
        end
      in
      add (sym + 1);
      m.total <- nt
    end
    else
      (* the incremented total would cross the bound: skip the
         incremental tree touch-up and halve+rebuild directly, exactly
         what update-then-halve computed over int arrays *)
      halve_with m sym 32

  let cum_below m sym =
    let t = m.tree in
    let rec go i acc =
      if i > 0 then go (i - (i land -i)) (acc + get16 t (i * 2))
      else acc
    in
    go sym 0

  (* Largest [sym] with cumulative frequency <= [target]; since every
     frequency stays >= 1, prefix sums are strictly increasing and the
     top-down bit descent lands on exactly the symbol the linear scan
     finds, with its cumulative as a by-product. *)
  let find m target =
    let t = m.tree and n = m.n in
    let rec go idx cum bit =
      if bit = 0 then (idx, cum)
      else begin
        let nxt = idx + bit in
        if nxt <= n then begin
          let c = cum + get16 t (nxt * 2) in
          if c <= target then go nxt c (bit lsr 1) else go idx cum (bit lsr 1)
        end
        else go idx cum (bit lsr 1)
      end
    in
    go 0 0 m.start_bit

  let freq m sym = get16 m.freqs (sym * 2)
  let total m = m.total
end

type encoder = {
  mutable low : int;
  mutable range : int;
  buf : Buffer.t;
}

let encoder () = { low = 0; range = mask32; buf = Buffer.create 256 }

let enc_normalize e =
  while
    (e.low lxor (e.low + e.range)) < top
    || (e.range < bot
       &&
       (e.range <- -e.low land (bot - 1);
        true))
  do
    Buffer.add_char e.buf (Char.chr ((e.low lsr 24) land 0xff));
    e.low <- (e.low lsl 8) land mask32;
    e.range <- (e.range lsl 8) land mask32
  done

let encode e m sym =
  let cum = Model.cum_below m sym in
  let f = Model.freq m sym in
  let r = e.range / Model.total m in
  e.low <- (e.low + (r * cum)) land mask32;
  e.range <- r * f;
  enc_normalize e

let finish e =
  for _ = 1 to 4 do
    Buffer.add_char e.buf (Char.chr ((e.low lsr 24) land 0xff));
    e.low <- (e.low lsl 8) land mask32
  done;
  Buffer.contents e.buf

type decoder = {
  mutable dlow : int;
  mutable drange : int;
  mutable code : int;
  src : string;
  mutable pos : int;
}

let next_byte d =
  if d.pos < String.length d.src then begin
    let b = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    b
  end
  else 0

let decoder s =
  let d = { dlow = 0; drange = mask32; code = 0; src = s; pos = 0 } in
  for _ = 1 to 4 do
    d.code <- ((d.code lsl 8) lor next_byte d) land mask32
  done;
  d

let dec_normalize d =
  while
    (d.dlow lxor (d.dlow + d.drange)) < top
    || (d.drange < bot
       &&
       (d.drange <- -d.dlow land (bot - 1);
        true))
  do
    d.code <- ((d.code lsl 8) lor next_byte d) land mask32;
    d.dlow <- (d.dlow lsl 8) land mask32;
    d.drange <- (d.drange lsl 8) land mask32
  done

let decode d m =
  let r = d.drange / Model.total m in
  let target = min (Model.total m - 1) ((d.code - d.dlow) land mask32 / r) in
  let sym, cum = Model.find m target in
  let f = Model.freq m sym in
  d.dlow <- (d.dlow + (r * cum)) land mask32;
  d.drange <- r * f;
  dec_normalize d;
  sym

(* ---- order-N byte compressor ---- *)

let context_slots = 4096

let ctx_hash order history =
  if order = 0 then 0
  else begin
    let h = ref 0 in
    for i = 0 to order - 1 do
      h := (!h * 257) + history.(i)
    done;
    !h land (context_slots - 1)
  end

(* an eagerly built model stays as [Model.create] left it until its
   first lookup, so creating it then codes the same bytes; the per-call
   array keeps banks unshared across the store's encoding domains *)
let bank n =
  let slots = Array.make context_slots None in
  fun slot ->
    match slots.(slot) with
    | Some m -> m
    | None ->
      let m = Model.create n in
      slots.(slot) <- Some m;
      m

let compress_order_n ~order s =
  if order < 0 || order > 3 then invalid_arg "Range_coder.compress_order_n";
  let models = bank 256 in
  let history = Array.make (max order 1) 0 in
  let e = encoder () in
  String.iter
    (fun c ->
      let b = Char.code c in
      let m = models (ctx_hash order history) in
      encode e m b;
      Model.update m b;
      if order > 0 then begin
        for i = order - 1 downto 1 do
          history.(i) <- history.(i - 1)
        done;
        history.(0) <- b
      end)
    s;
  let body = finish e in
  let hdr = Buffer.create 8 in
  Support.Util.uleb128 hdr (String.length s);
  Buffer.add_char hdr (Char.chr order);
  Buffer.contents hdr ^ body

let default_max_output = 1 lsl 26

let decompress_order_n_exn ?(max_output = default_max_output) ~order z =
  if order < 0 || order > 3 then invalid_arg "Range_coder.decompress_order_n";
  let pos = ref 0 in
  let fail kind msg =
    Support.Decode_error.fail ~decoder:"range" ~kind ~pos:!pos msg
  in
  let n = Support.Util.read_uleb128 z pos in
  if n > max_output then
    fail Support.Decode_error.Limit
      (Printf.sprintf "declared length %d exceeds cap %d" n max_output);
  if !pos >= String.length z then
    fail Support.Decode_error.Truncated "missing order byte";
  let stored_order = Char.code z.[!pos] in
  incr pos;
  if stored_order <> order then
    fail Support.Decode_error.Bad_value
      (Printf.sprintf "stored order %d, expected %d" stored_order order);
  let models = bank 256 in
  let history = Array.make (max order 1) 0 in
  let d = decoder (String.sub z !pos (String.length z - !pos)) in
  (* adaptive coding can pack a symbol into under a bit, so [n] cannot be
     bounded by the input length; grow towards it instead of trusting it *)
  let buf = Buffer.create (min n 65536) in
  for _ = 1 to n do
    let m = models (ctx_hash order history) in
    let b = decode d m in
    Model.update m b;
    Buffer.add_char buf (Char.chr b);
    if order > 0 then begin
      for i = order - 1 downto 1 do
        history.(i) <- history.(i - 1)
      done;
      history.(0) <- b
    end
  done;
  Buffer.contents buf

let decompress_order_n ?max_output ~order z =
  Support.Decode_error.guard ~decoder:"range" (fun () ->
      decompress_order_n_exn ?max_output ~order z)
