(* Keyed LRU cache with in-flight coalescing. See cache.mli. *)

type 'v entry =
  | Ready of { value : 'v; mutable last_use : int }
  | In_flight

type served = Hit | Miss | Coalesced

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  size : int;
}

type 'v t = {
  capacity : int;
  tbl : (string, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable tick : int;  (** LRU clock: bumped on every touch *)
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable evictions : int;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_coalesced : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

let create ?(capacity = 64) ~name () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  let m sub = Obs.Metrics.counter (Fmt.str "serve_%s_cache_%s" name sub) in
  {
    capacity;
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    cond = Condition.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    evictions = 0;
    c_hits = m "hits";
    c_misses = m "misses";
    c_coalesced = m "coalesced";
    c_evictions = m "evictions";
  }

let touch t = t.tick <- t.tick + 1; t.tick

let ready_size t =
  Hashtbl.fold (fun _ e n -> match e with Ready _ -> n + 1 | In_flight -> n) t.tbl 0

(* Evict least-recently-used ready entries until within capacity.
   Called under the lock. *)
let enforce_capacity t =
  while ready_size t > t.capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match (e, acc) with
          | In_flight, _ -> acc
          | Ready { last_use; _ }, Some (_, best) when best <= last_use -> acc
          | Ready { last_use; _ }, _ -> Some (k, last_use))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr t.c_evictions
    | None -> assert false (* ready_size > capacity >= 1 implies a victim *)
  done

(* Insert the computed value and wake waiters. Under the lock. *)
let insert t key value =
  Hashtbl.replace t.tbl key (Ready { value; last_use = touch t });
  enforce_capacity t;
  Condition.broadcast t.cond

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  let rec attempt ~waited =
    match Hashtbl.find_opt t.tbl key with
    | Some (Ready e) ->
        e.last_use <- touch t;
        if waited then begin
          t.coalesced <- t.coalesced + 1;
          Obs.Metrics.incr t.c_coalesced
        end
        else begin
          t.hits <- t.hits + 1;
          Obs.Metrics.incr t.c_hits
        end;
        Mutex.unlock t.lock;
        (e.value, if waited then Coalesced else Hit)
    | Some In_flight ->
        Condition.wait t.cond t.lock;
        attempt ~waited:true
    | None -> compute ()
  and compute () =
    Hashtbl.replace t.tbl key In_flight;
    t.misses <- t.misses + 1;
    Obs.Metrics.incr t.c_misses;
    Mutex.unlock t.lock;
    match f () with
    | value ->
        Mutex.lock t.lock;
        insert t key value;
        Mutex.unlock t.lock;
        (value, Miss)
    | exception e ->
        (* un-poison the key and wake waiters so one of them retries *)
        Mutex.lock t.lock;
        Hashtbl.remove t.tbl key;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        raise e
  in
  attempt ~waited:false

let find t ~key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some (Ready e) ->
        e.last_use <- touch t;
        t.hits <- t.hits + 1;
        Obs.Metrics.incr t.c_hits;
        Some e.value
    | Some In_flight | None ->
        t.misses <- t.misses + 1;
        Obs.Metrics.incr t.c_misses;
        None
  in
  Mutex.unlock t.lock;
  r

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      coalesced = t.coalesced;
      evictions = t.evictions;
      size = ready_size t;
    }
  in
  Mutex.unlock t.lock;
  s

let export t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold
      (fun k e acc ->
        match e with
        | Ready { value; last_use } -> (last_use, k, value) :: acc
        | In_flight -> acc)
      t.tbl []
  in
  Mutex.unlock t.lock;
  (* least-recently-used first, so [import] replays the LRU order *)
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries
  |> List.map (fun (_, k, v) -> (k, v))

let import t entries =
  Mutex.lock t.lock;
  List.iter (fun (key, value) -> insert t key value) entries;
  Mutex.unlock t.lock
