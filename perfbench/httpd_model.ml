(* An OCaml transcription of the [httpd] workload's request loop, used
   to check the simulator's output without reference to any stored
   run.

   [handle_request] answers 400 to a staged length outside [0, 512];
   otherwise it hashes the first [min len 16] words of the request
   line and dispatches on the hash's low bit to one of two handlers:
   the static one counts 1 served and answers the status code, the
   dynamic one counts 2 and answers the code plus one. The hash is
   [(h * 33 + w) & 0x7fffffff], which on 31-bit [h] is the same whether
   or not [h * 33] wraps first. *)

let status = [| 200; 301; 404; 500 |]

(* One request over [line] with staged length [len]: (reply, served). *)
let handle line len =
  if len < 0 || len > 512 then (400, 0)
  else begin
    let h = ref 5381 in
    for i = 0 to min len 16 - 1 do
      h := ((!h * 33) + line.(i)) land 0x7fffffff
    done;
    let code = status.(!h mod 4) in
    if !h land 1 = 1 then (code, 1) else (code + 1, 2)
  end

(* The print trace of a connection whose server loop runs [requests]
   times over the staged [line]/[len]: [total; served]. *)
let staged ~line ~len ~requests =
  let reply, served = handle line len in
  [ reply * requests; served * requests ]

(* The print trace of the shipped binary run as is: 400 requests, each
   a synthesized benign line of [8 + r mod 5] letters. *)
let benign () =
  let total = ref 0 and served = ref 0 in
  for r = 0 to 399 do
    let len = 8 + (r mod 5) in
    let line = Array.init len (fun k -> 65 + (((r * 7) + k) mod 26)) in
    let reply, s = handle line len in
    total := !total + reply;
    served := !served + s
  done;
  [ !total; !served ]
