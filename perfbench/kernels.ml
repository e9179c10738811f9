(* The kernels workload's MiniC programs, each next to an OCaml
   transcription that computes its expected output independently of
   the compiler and the simulator.

   The transcriptions use [Int32], so every multiply, add, divide and
   shift wraps exactly as the 32-bit guest does, without going through
   the simulator's own wrap helpers. A kernel's input is its seed: it
   is written into the source as the initial value of the [seed]
   global, and the transcription starts from the same value.

   Every indirect call goes through a pointer computed right at the
   call site (as gobmk does). A pointer kept in a global and called
   after a HIPStR migration is killed (see the README's known fault),
   so no kernel does that. *)

type t = {
  k_name : string;
  k_src : string;  (** MiniC source *)
  k_expect : int list Lazy.t;  (** the print trace the transcription computes *)
  k_fuel : int;  (** instruction budget, well above what the kernel retires *)
}

let ( +: ) = Int32.add
let ( -: ) = Int32.sub
let ( *: ) = Int32.mul
let ( &: ) = Int32.logand
let ( ^: ) = Int32.logxor
let ( |: ) = Int32.logor
let i32 = Int32.of_int
let lcg_mask = 0x7fffffffl

(* ------------------------------------------------------------------ *)
(* sortsieve: array and branch loops. Each round refills an array from
   an LCG, insertion-sorts it and sieves primes below a bound that
   depends on the sorted data. *)

let sortsieve_n = 400
let sortsieve_m = 6000

let sortsieve_src ~seed ~rounds =
  Printf.sprintf
    {|
int a[%d];
int sieve[%d];
int seed = %d;

int lcg() {
  seed = (seed * 1103515245 + 12345) & 0x7fffffff;
  return seed >> 8;
}

int fill(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = lcg() & 0xffff; }
  return 0;
}

int isort(int n) {
  int i;
  for (i = 1; i < n; i = i + 1) {
    int v = a[i];
    int j = i - 1;
    while (j >= 0 && a[j] > v) { a[j + 1] = a[j]; j = j - 1; }
    a[j + 1] = v;
  }
  return 0;
}

int count_primes(int m) {
  int i;
  int j;
  int c = 0;
  for (i = 0; i < m; i = i + 1) { sieve[i] = 1; }
  for (i = 2; i * i < m; i = i + 1) {
    if (sieve[i] != 0) {
      for (j = i * i; j < m; j = j + i) { sieve[j] = 0; }
    }
  }
  for (i = 2; i < m; i = i + 1) { c = c + sieve[i]; }
  return c;
}

int main() {
  int r;
  int check = 0;
  int primes = 0;
  for (r = 0; r < %d; r = r + 1) {
    fill(%d);
    isort(%d);
    check = (check * 31 + a[0] + a[%d] * 7 + a[%d]) & 0x7fffffff;
    primes = primes + count_primes(%d + (a[0] & 255));
  }
  print(check);
  print(primes);
  return 0;
}
|}
    sortsieve_n (sortsieve_m + 256) seed rounds sortsieve_n sortsieve_n (sortsieve_n / 2)
    (sortsieve_n - 1) sortsieve_m

let sortsieve_ref ~seed ~rounds =
  let n = sortsieve_n in
  let s = ref (i32 seed) in
  let lcg () =
    s := (!s *: 1103515245l +: 12345l) &: lcg_mask;
    Int32.shift_right !s 8
  in
  let a = Array.make n 0l in
  let count_primes m =
    let sv = Array.make m true in
    let i = ref 2 in
    while !i * !i < m do
      if sv.(!i) then begin
        let j = ref (!i * !i) in
        while !j < m do
          sv.(!j) <- false;
          j := !j + !i
        done
      end;
      incr i
    done;
    let c = ref 0 in
    for k = 2 to m - 1 do
      if sv.(k) then incr c
    done;
    !c
  in
  let check = ref 0l and primes = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      a.(i) <- lcg () &: 0xffffl
    done;
    let sorted = Array.copy a in
    Array.sort Int32.compare sorted;
    Array.blit sorted 0 a 0 n;
    check := (!check *: 31l +: a.(0) +: (a.(n / 2) *: 7l) +: a.(n - 1)) &: lcg_mask;
    primes := !primes + count_primes (sortsieve_m + Int32.to_int (a.(0) &: 255l))
  done;
  [ Int32.to_int !check; !primes ]

(* ------------------------------------------------------------------ *)
(* arith: multiply, divide and remainder. Signed division of wrapped
   (often negative) values truncates toward zero on the guest, as
   [Int32.div] and [Int32.rem] do. *)

let arith_src ~seed ~iters =
  Printf.sprintf
    {|
int seed = %d;

int gcd(int a, int b) {
  while (b != 0) { int t = a %% b; a = b; b = t; }
  return a;
}

int powmod(int b, int e, int m) {
  int r = 1;
  b = b %% m;
  while (e > 0) {
    if ((e & 1) != 0) { r = (r * b) %% m; }
    b = (b * b) %% m;
    e = e >> 1;
  }
  return r;
}

int main() {
  int i;
  int x = seed;
  int acc = 1;
  int g = 0;
  int p = 0;
  for (i = 1; i < %d; i = i + 1) {
    x = x * 1664525 + 1013904223;
    int q = x / (i | 1);
    int r = x %% 97;
    acc = acc * 31 + q - r * 7;
    g = g ^ gcd((x & 0xffff) + 1, (i & 0xfff) + 1);
    if ((i & 15) == 0) { p = (p + powmod((x >> 4) & 0x7fff, i & 0x3ff, 40009)) %% 40009; }
  }
  print(acc);
  print(g);
  print(p);
  return 0;
}
|}
    seed iters

let arith_ref ~seed ~iters =
  let rec gcd a b = if b = 0l then a else gcd b (Int32.rem a b) in
  let powmod b e m =
    let r = ref 1l and b = ref (Int32.rem b m) and e = ref e in
    while !e > 0l do
      if !e &: 1l <> 0l then r := Int32.rem (!r *: !b) m;
      b := Int32.rem (!b *: !b) m;
      e := Int32.shift_right !e 1
    done;
    !r
  in
  let x = ref (i32 seed) and acc = ref 1l and g = ref 0l and p = ref 0l in
  for i = 1 to iters - 1 do
    let ii = i32 i in
    x := (!x *: 1664525l) +: 1013904223l;
    let q = Int32.div !x (ii |: 1l) in
    let r = Int32.rem !x 97l in
    acc := (!acc *: 31l) +: q -: (r *: 7l);
    g := !g ^: gcd ((!x &: 0xffffl) +: 1l) ((ii &: 0xfffl) +: 1l);
    if ii &: 15l = 0l then
      p :=
        Int32.rem
          (!p +: powmod (Int32.shift_right !x 4 &: 0x7fffl) (ii &: 0x3ffl) 40009l)
          40009l
  done;
  [ Int32.to_int !acc; Int32.to_int !g; Int32.to_int !p ]

(* ------------------------------------------------------------------ *)
(* dispatch: calls through function pointers chosen at the call site
   from four handlers, plus a recursive evaluator that picks its
   combiner the same way. *)

let dispatch_src ~seed ~iters =
  Printf.sprintf
    {|
int seed = %d;
int hist[4];

int op_add(int x) { hist[0] = hist[0] + 1; return x + 17; }
int op_mul(int x) { hist[1] = hist[1] + 1; return x * 3; }
int op_xor(int x) { hist[2] = hist[2] + 1; return x ^ 0x5a5a; }
int op_shr(int x) { hist[3] = hist[3] + 1; return (x >> 3) + 1; }

int comb_sum(int a, int b) { return a + b; }
int comb_diff(int a, int b) { return a - b; }

int tree(int d, int v) {
  if (d == 0) { return v & 1023; }
  int l = tree(d - 1, v * 5 + 1);
  int r = tree(d - 1, v * 3 + 2);
  int c = ((v & 1) == 0) ? &comb_sum : &comb_diff;
  return (*c)(l, r);
}

int main() {
  int i;
  int s = seed;
  int v = 1;
  int t = 0;
  for (i = 0; i < %d; i = i + 1) {
    s = (s * 1103515245 + 12345) & 0x7fffffff;
    int k = (s >> 12) & 3;
    int f = (k == 0) ? &op_add : ((k == 1) ? &op_mul : ((k == 2) ? &op_xor : &op_shr));
    v = ((*f)(v) + i) & 0xffffff;
    if ((i & 255) == 0) { t = t + tree(5, v); }
  }
  print(v);
  print(t);
  print(hist[0]);
  print(hist[1]);
  print(hist[2]);
  print(hist[3]);
  return 0;
}
|}
    seed iters

let dispatch_ref ~seed ~iters =
  let hist = Array.make 4 0 in
  let ops =
    [|
      (fun x -> x +: 17l);
      (fun x -> x *: 3l);
      (fun x -> x ^: 0x5a5al);
      (fun x -> Int32.shift_right x 3 +: 1l);
    |]
  in
  let rec tree d v =
    if d = 0 then v &: 1023l
    else
      let l = tree (d - 1) ((v *: 5l) +: 1l) in
      let r = tree (d - 1) ((v *: 3l) +: 2l) in
      if v &: 1l = 0l then l +: r else l -: r
  in
  let s = ref (i32 seed) and v = ref 1l and t = ref 0l in
  for i = 0 to iters - 1 do
    s := (!s *: 1103515245l +: 12345l) &: lcg_mask;
    let k = Int32.to_int (Int32.shift_right !s 12 &: 3l) in
    hist.(k) <- hist.(k) + 1;
    v := (ops.(k) !v +: i32 i) &: 0xffffffl;
    if i land 255 = 0 then t := !t +: tree 5 !v
  done;
  [ Int32.to_int !v; Int32.to_int !t ] @ Array.to_list hist

(* ------------------------------------------------------------------ *)

(* [shrink] divides each kernel's work; 1 is the benchmark's size,
   where each kernel retires about 10 M guest instructions natively on
   the CISC core, and up to twice that under PSR on the RISC core. *)
let all ~seed ~shrink =
  (* a positive 31-bit LCG state per kernel, all derived from [seed] *)
  let kseed i = ((seed * 2654435761) + (i * 40503)) land 0x3fffffff lor 1 in
  [
    (let seed = kseed 1 and rounds = max 1 (9 / shrink) in
     {
       k_name = "sortsieve";
       k_src = sortsieve_src ~seed ~rounds;
       k_expect = lazy (sortsieve_ref ~seed ~rounds);
       k_fuel = 60_000_000;
     });
    (let seed = kseed 2 and iters = 90_000 / shrink in
     {
       k_name = "arith";
       k_src = arith_src ~seed ~iters;
       k_expect = lazy (arith_ref ~seed ~iters);
       k_fuel = 60_000_000;
     });
    (let seed = kseed 3 and iters = 175_000 / shrink in
     {
       k_name = "dispatch";
       k_src = dispatch_src ~seed ~iters;
       k_expect = lazy (dispatch_ref ~seed ~iters);
       k_fuel = 60_000_000;
     });
  ]
