(* Global hash-consing of symbol and string payloads.

   Every [Value.Sym]/[Value.Str] payload is an id into this table, so
   equality and hashing on symbols are integer operations on the hot
   path.  String order is preserved through a rank table: [compare]
   looks ids up in a permutation sorted by [String.compare] that is
   rebuilt lazily whenever a comparison touches an id interned after
   the last rebuild.  A stale ranking is still correct for the ids it
   covers — inserting new strings never reorders old ones relative to
   each other — so rebuilds only trigger on comparisons against fresh
   symbols, which in practice means at most once after each parse/load
   phase.

   The table is shared by every domain in the process: gbcd evaluates
   independent sessions on a pool of domains, and two sessions
   interning the same new symbol concurrently must agree on its id.
   All writes happen under [lock]; [count] is the publication
   frontier — it is advanced (an atomic release) only after the string
   is in place, so the lock-free readers [resolve] and [compare_ids]
   that observe [id < count] (an acquire) also observe the string and
   the array generation that holds it.  Ids below an observed [count]
   never change, so reading a stale [strings] array is harmless. *)

let initial = 1024

let lock = Mutex.create ()

(* Written only under [lock]. *)
let strings = ref (Array.make initial "")
let tbl : (string, int) Hashtbl.t = Hashtbl.create initial

let count = Atomic.make 0

let size () = Atomic.get count

let intern s =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tbl s with
      | Some id -> id
      | None ->
        let id = Atomic.get count in
        if id = Array.length !strings then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit !strings 0 bigger 0 id;
          strings := bigger
        end;
        !strings.(id) <- s;
        Hashtbl.add tbl s id;
        Atomic.set count (id + 1);
        id)

let resolve id =
  if id < 0 || id >= Atomic.get count then
    invalid_arg (Printf.sprintf "Interner.resolve: unknown id %d" id);
  !strings.(id)

(* The canonical (first-interned) copy of [s]: token streams share one
   string per distinct identifier instead of one fresh [String.sub]
   per occurrence. *)
let canonical s = resolve (intern s)

(* [ord.(id)] ranks [strings.(id)] by [String.compare]; valid for ids
   below [upto].  Swapped in atomically as one pair so readers never
   see a fresh bound against a stale permutation. *)
type ranking = { ord : int array; upto : int }

let ranking = Atomic.make { ord = [||]; upto = 0 }

let rebuild_order () =
  Mutex.protect lock (fun () ->
      let n = Atomic.get count in
      let ss = !strings in
      let ids = Array.init n Fun.id in
      Array.sort (fun a b -> String.compare ss.(a) ss.(b)) ids;
      let ord = Array.make n 0 in
      Array.iteri (fun rank id -> ord.(id) <- rank) ids;
      Atomic.set ranking { ord; upto = n })

(* A rebuild covers every id below the [count] it snapshots, and
   [upto] only grows, so one rebuild serves any [n <= count]. *)
let rec ranks n =
  let r = Atomic.get ranking in
  if n <= r.upto then r.ord
  else if n > Atomic.get count then invalid_arg (Printf.sprintf "Interner.ranks: %d ids" n)
  else begin
    rebuild_order ();
    ranks n
  end

let compare_ids a b =
  if a = b then 0
  else
    let ord = ranks (1 + max a b) in
    Int.compare (Array.unsafe_get ord a) (Array.unsafe_get ord b)
