open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

(** Query-result cache (§II: "the query engine directly returns M(Q,G)
    if it is already cached").

    Results are keyed by (pattern fingerprint, snapshot identity): the
    identity [(graph_id, epoch)] pins both the graph and its epoch, so
    the cache can never serve a stale relation — and, unlike the old
    bare-version key, never confuses a graph with its copy (both start
    at version 0 but carry distinct graph ids).  Eviction is LRU with a
    bounded entry count.

    Accounting is built on the telemetry registry: each instance keeps
    always-on {!Expfinder_telemetry.Telemetry.Counter} values (read by
    {!hits}/{!misses}/{!evictions}), and the same code paths bump the
    registered [cache.hits]/[cache.misses]/[cache.evictions]/
    [cache.stores] counters, so per-instance stats and the process-wide
    metrics dump cannot drift apart.

    All operations are serialized by an internal mutex: with the
    domain-pool server, any worker domain probes and stores while the
    writer domain clears on update, and the LRU clock/stamp updates are
    read-modify-write.  Probes return defensive copies taken under the
    lock, so callers never share a relation with the cache.

    Each entry also memoises its answer digest ({!digest}): a served
    cache hit replies with the digest hashed when the entry was first
    asked for it, instead of re-hashing the relation. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 64 entries. *)

val capacity : t -> int

val length : t -> int

val find : t -> Pattern.t -> snapshot:Snapshot.identity -> Match_relation.t option
(** A hit returns a defensive copy and refreshes recency. *)

val store : t -> Pattern.t -> snapshot:Snapshot.identity -> Match_relation.t -> unit
(** Insert (copying the relation), evicting the least recently used
    entry when full. *)

val digest : t -> Pattern.t -> snapshot:Snapshot.identity -> Match_relation.t -> string
(** [digest t p ~snapshot r] is [Match_relation.digest r].  When the
    entry stored under [(p, snapshot)] holds a relation equal to [r],
    the digest is memoised on that entry: it is computed at most once
    per entry (two domains racing on a fresh entry may both compute
    it), and later calls return the memo.  The memo lives and dies with
    its entry — LRU eviction, {!clear}, {!invalidate_snapshot} and a
    re-{!store} of the same key all drop it.  The [snapshot] must be the
    identity the answer was computed on, not a later one: after an
    epoch advance the key names a different entry (or none), and the
    digest is computed from [r] without a memo. *)

val fold :
  t ->
  snapshot:Snapshot.identity ->
  init:'a ->
  f:('a -> Pattern.t -> Match_relation.t -> 'a) ->
  'a
(** Fold over the live entries of one snapshot (iteration order
    unspecified, recency untouched).  The engine scans these for a
    cached {e superset} query when the exact fingerprint misses
    (containment reuse), and batch evaluation uses the same scan to
    share relations across a batch.  The relation is the stored one —
    do not mutate it.  [f] runs with the cache lock held: it must not
    call back into this cache. *)

val invalidate_snapshot : t -> Snapshot.identity -> unit
(** Drop every entry recorded under the given snapshot identity. *)

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters (the eviction
    counter is cumulative over the cache's lifetime). *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
(** Entries dropped by LRU pressure (not by {!clear} /
    {!invalidate_snapshot}). *)

val digests : t -> int
(** Digests {!digest} computed rather than read from a memo, over the
    cache's lifetime (not reset by {!clear}). *)
