(** Byte-addressable linear memory with a bump allocator.

    Address 0 is kept unmapped so it can serve as a null pointer.  All
    accesses are bounds-checked; an out-of-bounds access raises [Fault],
    which differential tests rely on to catch miscompiled masks.

    The address space is [limit] bytes long ([?size], 1 MiB by default)
    and reads as zero until written.  Only a prefix of it is backed by
    [data]: the buffer starts small and doubles, zero-filled, when an
    access or an allocation reaches past it, never past [limit].  Which
    accesses fault, and with what message, depends on [limit] alone. *)

exception Fault of string

type t = { mutable data : Bytes.t; mutable brk : int; mutable limit : int }

(* most kernels reach a few KB of their 1 MiB *)
let initial_backing = 4096

let create ?(size = 1 lsl 20) () =
  { data = Bytes.make (min size initial_backing) '\000'; brk = 64; limit = size }

let size t = t.limit

(* Back at least the first [n <= limit] bytes. *)
let back t n =
  let len = Bytes.length t.data in
  if n > len then begin
    let data = Bytes.make (min t.limit (max n (2 * len))) '\000' in
    Bytes.blit t.data 0 data 0 len;
    t.data <- data
  end

let ensure t cap =
  if cap > t.limit then t.limit <- max cap (2 * t.limit);
  back t cap

(** Allocate [bytes] bytes, 64-byte aligned; returns the address. *)
let alloc t bytes =
  let addr = (t.brk + 63) / 64 * 64 in
  ensure t (addr + bytes);
  t.brk <- addr + bytes;
  addr

(** Current allocation mark; [release] rolls back to it (used for
    function-frame allocas). *)
let mark t = t.brk
let release t m = t.brk <- m

(* Past the backing buffer: fault outside [64, limit), else back the
   access (the fresh bytes read as zero). *)
let[@inline never] check_slow t addr len what =
  if addr < 64 || addr + len > t.limit then
    raise (Fault (Fmt.str "%s of %d bytes at address %d out of bounds" what len addr));
  back t (addr + len)

let[@inline] check t addr len what =
  if addr < 64 || addr + len > Bytes.length t.data then check_slow t addr len what

let load_scalar t (s : Pir.Types.scalar) addr : Value.t =
  let len = Pir.Types.scalar_bytes s in
  check t addr len "load";
  match s with
  | I1 -> Value.I (if Bytes.get_uint8 t.data addr <> 0 then 1L else 0L)
  | I8 -> Value.I (Int64.of_int (Bytes.get_uint8 t.data addr))
  | I16 -> Value.I (Int64.of_int (Bytes.get_uint16_le t.data addr))
  | I32 -> Value.I (Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFFFFFFL)
  | I64 -> Value.I (Bytes.get_int64_le t.data addr)
  | F32 -> Value.F (Int32.float_of_bits (Bytes.get_int32_le t.data addr))
  | F64 -> Value.F (Int64.float_of_bits (Bytes.get_int64_le t.data addr))

let store_scalar t (s : Pir.Types.scalar) addr (v : Value.t) =
  let len = Pir.Types.scalar_bytes s in
  check t addr len "store";
  match (s, v) with
  | I1, Value.I x -> Bytes.set_uint8 t.data addr (if x = 0L then 0 else 1)
  | I8, Value.I x -> Bytes.set_uint8 t.data addr (Int64.to_int (Int64.logand x 0xFFL))
  | I16, Value.I x -> Bytes.set_uint16_le t.data addr (Int64.to_int (Int64.logand x 0xFFFFL))
  | I32, Value.I x -> Bytes.set_int32_le t.data addr (Int64.to_int32 x)
  | I64, Value.I x -> Bytes.set_int64_le t.data addr x
  | F32, Value.F x -> Bytes.set_int32_le t.data addr (Int32.bits_of_float x)
  | F64, Value.F x -> Bytes.set_int64_le t.data addr (Int64.bits_of_float x)
  | _ -> Fmt.invalid_arg "Memory.store_scalar: %a as %a" Value.pp v Pir.Types.pp (Pir.Types.Scalar s)

(* -- Unboxed scalar accessors --

   Same semantics (bounds checks, canonical zero-extension, rounding)
   as [load_scalar]/[store_scalar] but without boxing each element in a
   [Value.t]; the interpreter's packed/gather fast paths use these to
   fill lane arrays directly. *)

let load_int t (s : Pir.Types.scalar) addr : int64 =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 -> if Bytes.get_uint8 t.data addr <> 0 then 1L else 0L
  | I8 -> Int64.of_int (Bytes.get_uint8 t.data addr)
  | I16 -> Int64.of_int (Bytes.get_uint16_le t.data addr)
  | I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFFFFFFL
  | I64 -> Bytes.get_int64_le t.data addr
  | F32 | F64 -> Fmt.invalid_arg "Memory.load_int: %a" Pir.Types.pp (Pir.Types.Scalar s)

let load_float t (s : Pir.Types.scalar) addr : float =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | F32 -> Int32.float_of_bits (Bytes.get_int32_le t.data addr)
  | F64 -> Int64.float_of_bits (Bytes.get_int64_le t.data addr)
  | _ -> Fmt.invalid_arg "Memory.load_float: %a" Pir.Types.pp (Pir.Types.Scalar s)

let store_int t (s : Pir.Types.scalar) addr (x : int64) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | I1 -> Bytes.set_uint8 t.data addr (if x = 0L then 0 else 1)
  | I8 -> Bytes.set_uint8 t.data addr (Int64.to_int (Int64.logand x 0xFFL))
  | I16 -> Bytes.set_uint16_le t.data addr (Int64.to_int (Int64.logand x 0xFFFFL))
  | I32 -> Bytes.set_int32_le t.data addr (Int64.to_int32 x)
  | I64 -> Bytes.set_int64_le t.data addr x
  | F32 | F64 -> Fmt.invalid_arg "Memory.store_int: %a" Pir.Types.pp (Pir.Types.Scalar s)

let store_float t (s : Pir.Types.scalar) addr (x : float) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | F32 -> Bytes.set_int32_le t.data addr (Int32.bits_of_float x)
  | F64 -> Bytes.set_int64_le t.data addr (Int64.bits_of_float x)
  | _ -> Fmt.invalid_arg "Memory.store_float: %a" Pir.Types.pp (Pir.Types.Scalar s)

(* -- Native-int scalar accessors (widths <= 32) --

   The VM's unboxed register banks hold native [int]s; these accessors
   skip the [int64] round-trip entirely (no boxed intermediates on the
   non-flambda native compiler: 32-bit values move as two 16-bit
   immediate reads/writes).  Loads return the canonical zero-extended
   value, stores mask to the store width — bit-identical to
   [load_int]/[store_int] over the same bytes. *)

let[@inline] load_nat t (s : Pir.Types.scalar) addr : int =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 -> if Bytes.get_uint8 t.data addr <> 0 then 1 else 0
  | I8 -> Bytes.get_uint8 t.data addr
  | I16 -> Bytes.get_uint16_le t.data addr
  | I32 ->
      Bytes.get_uint16_le t.data addr
      lor (Bytes.get_uint16_le t.data (addr + 2) lsl 16)
  | I64 | F32 | F64 ->
      Fmt.invalid_arg "Memory.load_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] store_nat t (s : Pir.Types.scalar) addr (x : int) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | I1 -> Bytes.set_uint8 t.data addr (if x = 0 then 0 else 1)
  | I8 -> Bytes.set_uint8 t.data addr (x land 0xFF)
  | I16 -> Bytes.set_uint16_le t.data addr (x land 0xFFFF)
  | I32 ->
      Bytes.set_uint16_le t.data addr (x land 0xFFFF);
      Bytes.set_uint16_le t.data (addr + 2) ((x lsr 16) land 0xFFFF)
  | I64 | F32 | F64 ->
      Fmt.invalid_arg "Memory.store_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] load_f32 t addr : float =
  check t addr 4 "load";
  Int32.float_of_bits (Bytes.get_int32_le t.data addr)

let[@inline] load_f64 t addr : float =
  check t addr 8 "load";
  Int64.float_of_bits (Bytes.get_int64_le t.data addr)

let[@inline] store_f32 t addr (x : float) =
  check t addr 4 "store";
  Bytes.set_int32_le t.data addr (Int32.bits_of_float x)

let[@inline] store_f64 t addr (x : float) =
  check t addr 8 "store";
  Bytes.set_int64_le t.data addr (Int64.bits_of_float x)

(* -- Bulk helpers used by workload setup and result checking -- *)

let write_bytes t addr (b : bytes) =
  check t addr (Bytes.length b) "write_bytes";
  Bytes.blit b 0 t.data addr (Bytes.length b)

let read_bytes t addr len =
  check t addr len "read_bytes";
  Bytes.sub t.data addr len

(** Allocate and initialize an array of scalars; returns its address. *)
let alloc_array t (s : Pir.Types.scalar) (vals : Value.t array) =
  let esz = Pir.Types.scalar_bytes s in
  let addr = alloc t (esz * Array.length vals) in
  Array.iteri (fun i v -> store_scalar t s (addr + (i * esz)) v) vals;
  addr

let read_array t (s : Pir.Types.scalar) addr n =
  let esz = Pir.Types.scalar_bytes s in
  Array.init n (fun i -> load_scalar t s (addr + (i * esz)))

(** Snapshot of the allocated region, for state comparison in tests. *)
let snapshot t = Bytes.sub t.data 0 t.brk
