(* In-memory spans for the traced run.  The benchmark opens an op span
   around each operation and a child span around each call into a
   layer's public entry point; nothing inside the program is traced.
   Spans are kept in memory and written out when the run ends.

   Times are monotonic nanoseconds.  Spans reported by the serve daemon
   (its response trace) carry only a duration; they are placed at the
   start of their parent. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  name : string;
  op : int;  (** id of the op this span belongs to; the op span's own *)
  parent : string;  (** "" for an op span *)
  t0 : int;
  t1 : int;
}

let enabled = ref false
let spans : t list ref = ref []
let current_op = ref 0

let add s = if !enabled then spans := s :: !spans

let op_span ~op ~t0 ~t1 = add { name = "op"; op; parent = ""; t0; t1 }

let child name ~t0 ~t1 = add { name; op = !current_op; parent = "op"; t0; t1 }

let dur s = s.t1 - s.t0

(* Self time per span name, in ns: each span's duration minus its
   direct children's durations (children of one parent do not
   overlap), summed over all spans of that name.  Also the call count
   per name. *)
let self_times () : (string * (int * int)) list =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> "" then begin
        let k = (s.op, s.parent) in
        let prev = Option.value ~default:0 (Hashtbl.find_opt children k) in
        Hashtbl.replace children k (prev + dur s)
      end)
    !spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered =
        Option.value ~default:0 (Hashtbl.find_opt children (s.op, s.name))
      in
      let calls, ns = Option.value ~default:(0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (calls + 1, ns + dur s - covered))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* Chrome trace-event JSON (one complete event per span), readable in
   chrome://tracing or Perfetto. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%S}}"
            (if i = 0 then "" else ",")
            s.name
            (float_of_int s.t0 /. 1000.0)
            (float_of_int (dur s) /. 1000.0)
            s.op s.parent)
        (List.rev !spans);
      output_string oc "\n]\n")
