open Bm_engine

type t = {
  sim : Sim.t;
  spec : Cpu_spec.t;
  threads : int;
  ghz : float;
  pool : Sim.Resource.resource;
  mutable dilation : float -> float;
  busy_ns : float array; (* one flat cell: accumulated thread-busy time *)
  created : float;
}

let create sim ~spec ?threads ?ghz () =
  let threads = match threads with Some n -> n | None -> spec.Cpu_spec.threads in
  let ghz = match ghz with Some g -> g | None -> spec.Cpu_spec.base_ghz in
  if threads <= 0 then invalid_arg "Cores.create: threads must be positive";
  if not (ghz > 0.0) then invalid_arg "Cores.create: ghz must be positive";
  {
    sim;
    spec;
    threads;
    ghz;
    pool = Sim.Resource.create ~capacity:threads;
    dilation = (fun x -> x);
    busy_ns = [| 0.0 |];
    created = Sim.now sim;
  }

let spec t = t.spec
let ghz t = t.ghz
let thread_count t = t.threads
let busy t = Sim.Resource.in_use t.pool
let set_dilation t f = t.dilation <- f

let occupy t duration =
  Sim.Resource.hold t.pool duration;
  t.busy_ns.(0) <- t.busy_ns.(0) +. duration

let execute_ns t natural =
  if not (natural >= 0.0) then invalid_arg "Cores.execute_ns: duration must be non-negative";
  occupy t (t.dilation natural)

let execute_cycles t cycles = execute_ns t (cycles /. t.ghz)

let busy_wait t duration = occupy t duration

let utilization t ~now =
  let span = (now -. t.created) *. float_of_int t.threads in
  if span <= 0.0 then 0.0 else t.busy_ns.(0) /. span
