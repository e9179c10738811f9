(* Host-time spans around the calls the benchmark makes into each layer
   of the program.

   A span has a name, a parent, a start and an end (host seconds), the
   phase of the run it belongs to, and integer attributes noted while
   it was open (guest instructions, minor words, image bytes). Spans
   are kept in memory and written out once, at exit. When tracing is
   off, [span] only calls its function. *)

type phase = Setup | Ops | Probe

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  label : string;  (** what the span worked on, e.g. ["mcf/psr/risc"] *)
  phase : phase;
  t0 : float;
  mutable t1 : float;
  mutable attrs : (string * int) list;
}

let on = ref false
let now = Unix.gettimeofday
let phase = ref Setup
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 1

let span ?(label = "") name f =
  if not !on then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = (match !stack with p :: _ -> p.id | [] -> 0);
        name;
        label;
        phase = !phase;
        t0 = now ();
        t1 = 0.;
        attrs = [];
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Attach [key = v] to the innermost open span. *)
let note key v =
  match !stack with s :: _ when !on -> s.attrs <- (key, v) :: s.attrs | _ -> ()

let duration s = s.t1 -. s.t0
let attr s key = Option.value ~default:0 (List.assoc_opt key s.attrs)
let all () = List.rev !recorded

let phase_name = function Setup -> "setup" | Ops -> "ops" | Probe -> "probe"

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"label\":%S,\"phase\":%S,\"start_s\":%.6f,\"end_s\":%.6f%s}\n"
            s.id s.parent s.name s.label (phase_name s.phase) s.t0 s.t1
            (String.concat ""
               (List.rev_map (fun (k, v) -> Printf.sprintf ",%S:%d" k v) s.attrs)))
        (all ()))
