(* Chunked on-disk column store ("CAFSTOR1").

   Layout:
     offset 0   magic "CAFSTOR1" (8 bytes)
     offset 8   n_rows      int64 LE (patched on Writer.close)
     offset 16  dims        int64 LE
     offset 24  chunk_rows  int64 LE
     offset 32  data_offset int64 LE (multiple of 4096: the data region
                                      starts on a page)
     offset 40  per variable: [name length int64 LE][name bytes]
     ...        zero padding up to data_offset
     data       chunks in row order; chunk [c] holds rows
                [c*chunk_rows, min n ((c+1)*chunk_rows)) and stores, for
                each variable in order, that variable's values as
                contiguous little-endian float64.  Every chunk except the
                last has exactly [chunk_rows] rows, so chunk [c] starts at
                [data_offset + c * chunk_rows * dims * 8]; the last chunk
                is written compactly, so the file is exactly
                [data_offset + n_rows * dims * 8] bytes. *)

let magic = "CAFSTOR1"
let header_fixed = 40
let page = 4096

let default_chunk_rows = 65536

let round_up v align = (v + align - 1) / align * align

let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Colstore: " ^ msg)) fmt

module Writer = struct
  type t = {
    path : string;
    channel : out_channel;
    dims : int;
    chunk_rows : int;
    buffer : float array array;  (* dims x chunk_rows, current partial chunk *)
    scratch : Bytes.t;  (* chunk_rows * 8, encode one variable block *)
    mutable filled : int;  (* rows buffered, < chunk_rows *)
    mutable written : int;  (* rows already flushed to disk *)
    mutable closed : bool;
  }

  let write_int64 channel v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    output_bytes channel b

  let create ~path ~var_names ?(chunk_rows = default_chunk_rows) () =
    let dims = Array.length var_names in
    if dims = 0 then fail "zero variables";
    if chunk_rows < 1 then fail "chunk_rows %d < 1" chunk_rows;
    Array.iter
      (fun name -> if String.length name = 0 then fail "empty variable name")
      var_names;
    let header_len =
      Array.fold_left (fun acc name -> acc + 8 + String.length name) header_fixed var_names
    in
    let data_offset = round_up header_len page in
    let channel = open_out_bin path in
    output_string channel magic;
    write_int64 channel 0;  (* n_rows, patched on close *)
    write_int64 channel dims;
    write_int64 channel chunk_rows;
    write_int64 channel data_offset;
    Array.iter
      (fun name ->
        write_int64 channel (String.length name);
        output_string channel name)
      var_names;
    output_bytes channel (Bytes.make (data_offset - header_len) '\000');
    {
      path;
      channel;
      dims;
      chunk_rows;
      buffer = Array.init dims (fun _ -> Array.make chunk_rows 0.);
      scratch = Bytes.create (chunk_rows * 8);
      filled = 0;
      written = 0;
      closed = false;
    }

  let flush_chunk w =
    if w.filled > 0 then begin
      for d = 0 to w.dims - 1 do
        let column = w.buffer.(d) in
        for i = 0 to w.filled - 1 do
          Bytes.set_int64_le w.scratch (i * 8) (Int64.bits_of_float column.(i))
        done;
        output_bytes w.channel (Bytes.sub w.scratch 0 (w.filled * 8))
      done;
      w.written <- w.written + w.filled;
      w.filled <- 0
    end

  let append_row w row =
    if w.closed then fail "writer for %s is closed" w.path;
    if Array.length row <> w.dims then
      fail "row has %d cells, store %s has %d variables" (Array.length row) w.path w.dims;
    for d = 0 to w.dims - 1 do
      w.buffer.(d).(w.filled) <- row.(d)
    done;
    w.filled <- w.filled + 1;
    if w.filled = w.chunk_rows then flush_chunk w

  let close w =
    if not w.closed then begin
      w.closed <- true;
      flush_chunk w;
      (* Patch the row count now that it is known. *)
      seek_out w.channel 8;
      write_int64 w.channel w.written;
      close_out w.channel
    end
end

type t = {
  path : string;
  var_names : string array;
  n : int;
  dims : int;
  chunk_rows : int;
  data_offset : int;
  (* Reads go through a per-domain channel: domains must not
     share an [in_channel] (its buffer is not thread-safe).  The channels
     live in one table per store, not in domain-local state, so [close]
     reaches every domain's channel. *)
  channels_lock : Mutex.t;
  channels : (int, in_channel) Hashtbl.t;
}

let channel_owner () = (Domain.self () :> int)

let read_int64 channel =
  let b = Bytes.create 8 in
  really_input channel b 0 8;
  Int64.to_int (Bytes.get_int64_le b 0)

let chunk_count t = (t.n + t.chunk_rows - 1) / t.chunk_rows
let chunk_len t c = min t.chunk_rows (t.n - (c * t.chunk_rows))
let chunk_offset t c = t.data_offset + (c * t.chunk_rows * t.dims * 8)

(* Check the header against the file before allocating anything it
   sizes, so a damaged or foreign file is an [Invalid_argument] naming it,
   never an exhausted read or an allocation the header asked for.  The
   checks avoid products of header fields, which could overflow. *)
let read_header path channel =
  let file_len = in_channel_length channel in
  if file_len < header_fixed then
    fail "%s: %d bytes, too short for a CAFSTOR1 header" path file_len;
  if really_input_string channel (String.length magic) <> magic then
    fail "%s: bad magic (not a CAFSTOR1 file)" path;
  let n = read_int64 channel in
  let dims = read_int64 channel in
  let chunk_rows = read_int64 channel in
  let data_offset = read_int64 channel in
  if dims < 1 || chunk_rows < 1 || n < 0 || data_offset < header_fixed then
    fail "%s: corrupt header" path;
  if data_offset > file_len then
    fail "%s: data offset %d lies past the end of the %d-byte file" path data_offset file_len;
  (* Each name takes at least 9 header bytes: its length and one byte. *)
  if dims > (data_offset - header_fixed) / 9 then
    fail "%s: %d variable names cannot fit in a %d-byte header" path dims data_offset;
  let data_len = file_len - data_offset in
  if data_len mod 8 <> 0 || data_len / 8 mod dims <> 0 || data_len / 8 / dims <> n then
    fail "%s: %d data bytes do not hold %d rows of %d variables" path data_len n dims;
  let header_left () = data_offset - pos_in channel in
  let name_past_header () = fail "%s: a variable name runs past the header" path in
  let var_names =
    Array.init dims (fun _ ->
        if header_left () < 9 then name_past_header ();
        let len = read_int64 channel in
        if len < 1 || len > header_left () then name_past_header ();
        really_input_string channel len)
  in
  (* No chunk holds more rows than the store. *)
  (n, dims, min chunk_rows (max 1 n), data_offset, var_names)

let openfile path =
  (* [Sys_error] messages already name the path. *)
  let channel = try open_in_bin path with Sys_error msg -> fail "%s" msg in
  let n, dims, chunk_rows, data_offset, var_names =
    match read_header path channel with
    | header -> header
    | exception e -> (
        close_in_noerr channel;
        match e with
        | Sys_error msg -> fail "%s: %s" path msg
        | End_of_file -> fail "%s: ends inside its header" path
        | e -> raise e)
  in
  let t =
    {
      path;
      var_names;
      n;
      dims;
      chunk_rows;
      data_offset;
      channels_lock = Mutex.create ();
      channels = Hashtbl.create 4;
    }
  in
  (* The opening domain keeps the channel used for the header. *)
  Hashtbl.replace t.channels (channel_owner ()) channel;
  t

let var_names t = t.var_names
let n_rows t = t.n
let chunk_rows t = t.chunk_rows

let close_quietly chan = try close_in chan with Sys_error _ -> ()

let channel t =
  let owner = channel_owner () in
  Mutex.protect t.channels_lock (fun () ->
      match Hashtbl.find_opt t.channels owner with
      | Some chan -> chan
      | None ->
          let chan = open_in_bin t.path in
          Hashtbl.replace t.channels owner chan;
          chan)

(* [Bytes.get_int64_le] without its bounds check, little-endian on every
   host. *)
external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] unsafe_get_int64_le b i =
  if Sys.big_endian then swap64 (unsafe_get_int64_ne b i) else unsafe_get_int64_ne b i

let iter_chunks t ~f =
  let chunks = chunk_count t in
  if chunks > 0 then begin
    let columns = Array.init t.dims (fun _ -> Array.make t.chunk_rows 0.) in
    let chan = channel t in
    let scratch = Bytes.create (t.chunk_rows * 8) in
    for c = 0 to chunks - 1 do
      let len = chunk_len t c in
      (* [openfile] bounds [len] by [chunk_rows], the length of every
         column and of [scratch] in cells: checked once per chunk, so the
         decode loop below loads and stores without a check per cell. *)
      if len > t.chunk_rows then fail "%s: chunk %d holds %d rows" t.path c len;
      seek_in chan (chunk_offset t c);
      for d = 0 to t.dims - 1 do
        really_input chan scratch 0 (len * 8);
        let column = columns.(d) in
        for i = 0 to len - 1 do
          Array.unsafe_set column i
            (Int64.float_of_bits (unsafe_get_int64_le scratch (i * 8)))
        done
      done;
      f ~row0:(c * t.chunk_rows) ~len columns
    done
  end

let gather t ~indices =
  let k = Array.length indices in
  let out = Array.init t.dims (fun _ -> Array.make k 0.) in
  let chan = channel t in
  let cell = Bytes.create 8 in
  Array.iteri
    (fun j i ->
      if i < 0 || i >= t.n then fail "%s: row %d out of bounds" t.path i;
      let c = i / t.chunk_rows and r = i mod t.chunk_rows in
      let len = chunk_len t c in
      for d = 0 to t.dims - 1 do
        seek_in chan (chunk_offset t c + (((d * len) + r) * 8));
        really_input chan cell 0 8;
        out.(d).(j) <- Int64.float_of_bits (Bytes.get_int64_le cell 0)
      done)
    indices;
  out

let column t d =
  if d < 0 || d >= t.dims then fail "%s: variable index %d out of bounds" t.path d;
  let out = Array.make t.n 0. in
  iter_chunks t ~f:(fun ~row0 ~len columns ->
      Array.blit columns.(d) 0 out row0 len);
  out

let close t =
  Mutex.protect t.channels_lock (fun () ->
      Hashtbl.iter (fun _ chan -> close_quietly chan) t.channels;
      Hashtbl.reset t.channels)
