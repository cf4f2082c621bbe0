"""Transaction-consistent shared result cache (driver-manager level).

One cache per simulated world, shared by every virtual session the
driver manager multiplexes — the natural widening of the paper's §4
per-session client cache.  Entries are keyed by the normalized statement
text (parameters arrive pre-inlined at this layer) and carry the *read
set* the server reported alongside the result
(``ExecuteResponse.read_versions``): for every table the plan read, the
primary-key prefixes it sought there, the empty prefix ``()`` standing
for the whole table.  The consistency recipe follows "Theory and
Practice of Transactional Method Caching": every response piggybacks the
writes committed since the last round trip
(``ExecuteResponse.table_versions`` — per table the version the bump
started from, the new version and the primary keys written), and the
client folds them into a committed-version *mirror* under one rule:

    a committed write evicts exactly the entries whose read set it
    overlaps — those that read a prefix of a written key.

A write without keys (DDL, a table without primary key, more keys than
the server's cap) is a write to the empty prefix and evicts every entry
that read the table; so does a bump whose base version is not the
mirror's (a piggyback went missing: what it wrote is unknown).  Entries
are indexed ``table -> prefix -> entries``, so folding a written key
probes one bucket per prefix of the key, whatever the cache holds.
Eviction is eager: a live entry is valid at the mirror by construction,
and a lookup compares nothing.

Results produced inside an application transaction are *staged*: linked
into the same index — so the same rule evicts them when another
session's commit, or finally their own transaction's, overlaps what
they read — but invisible to lookups until COMMIT promotes the
survivors; ROLLBACK (or a crash-induced abort) discards them.

Crash epochs: piggybacked writes are only trusted within one server
incarnation (``server.crashes``).  When the epoch moves — or any
observation arrives from an unexpected epoch — the cache flags itself
stale and the next probe revalidates the whole cache with a single
``VersionProbeRequest``: a table whose recomputed version is not the
mirror's was written by a commit this client never heard of (its
response died with the server) and is treated as written wholesale;
entries of every other table survive (the paper's crash-proof client
cache, demonstrated at driver-manager scale).

All observability counters (``result_cache.*``, including the per-table
``result_cache.hits.<t>`` family surfaced by ``sys_metrics`` /
``sys_result_cache``) are world counters via ``meter.count`` — the cache
only exists while ``CostModel.result_cache_entries`` > 0, so runs
with the cache off carry none of them.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass


#: Largest result (in rows) the shared cache retains.  Bigger results
#: fall through to the normal execute/fetch path.
MAX_CACHED_ROWS = 200


def normalize_key(sql: str) -> str:
    """Whitespace-collapsed statement text (the cache key)."""
    return " ".join(sql.split())


@dataclass(slots=True, eq=False)
class CacheEntry:
    """One cached result with its read set."""

    key: str
    columns: list
    rows: list
    #: table -> the primary-key prefixes read in it (``()`` = all of it).
    reads: dict
    #: The application transaction that staged the entry (any hashable
    #: token); None once it is visible to lookups.
    owner: object = None


class SharedResultCache:
    """LRU of results with their read sets, shared across virtual
    sessions."""

    def __init__(self, meter):
        self.meter = meter
        self.capacity = meter.costs.result_cache_entries
        self.max_rows = MAX_CACHED_ROWS
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: owner -> key -> entry staged by its open transaction.
        self._staged: dict[object, dict[str, CacheEntry]] = {}
        #: table -> prefix -> the entries (visible and staged) that read
        #: it, and how many entries read each table at all.
        self._index: dict[str, dict[tuple, set[CacheEntry]]] = {}
        self._readers: Counter = Counter()
        #: Committed per-table versions as far as this client knows
        #: (absent = 0, matching the server's own convention).
        self.versions: dict[str, int] = {}
        #: Server incarnation the mirror belongs to.
        self.epoch = 0
        #: Set when an observation arrived from an unexpected epoch; a
        #: probe-based revalidation clears it.
        self.stale = False

    @classmethod
    def shared(cls, meter) -> "SharedResultCache":
        """The world's one cache, keyed off the meter (every layer of one
        simulated world shares the meter, so this is world-scoped state
        exactly like the Phoenix nonce counter)."""
        cache = getattr(meter, "_shared_result_cache", None)
        if cache is None:
            cache = cls(meter)
            meter._shared_result_cache = cache
        return cache

    def __len__(self) -> int:
        return len(self._entries)

    def census(self) -> dict[str, int]:
        """Visible entries by the precision of their read set: an entry
        that read any table wholesale is table-stamped."""
        table_stamped = sum(
            1 for entry in self._entries.values()
            if any(() in prefixes for prefixes in entry.reads.values()))
        return {"key_stamped": len(self._entries) - table_stamped,
                "table_stamped": table_stamped}

    # -- invalidation ------------------------------------------------------

    def observe_committed(self, updates: dict, epoch: int) -> None:
        """Fold piggybacked committed writes, ``table -> (base, version,
        keys)``, into the mirror.  Writes from another server
        incarnation are *not* trusted — they flag the cache stale so the
        next probe revalidates against the full recomputed vector."""
        if epoch != self.epoch:
            self.stale = True
            return
        for table, (base, version, keys) in updates.items():
            self._advance(table, base, version, keys)

    def needs_revalidation(self, current_epoch: int) -> bool:
        return self.stale or current_epoch != self.epoch

    def revalidate(self, server_versions: dict,
                   current_epoch: int) -> None:
        """Adopt the server's version vector wholesale; a table whose
        version it does not confirm counts as written."""
        for table in list(self._index):
            if server_versions.get(table, 0) \
                    != self.versions.get(table, 0):
                self._write(table, None)
        self.versions = dict(server_versions)
        self.epoch = current_epoch
        self.stale = False

    def _advance(self, table: str, base, version: int, keys) -> None:
        """Move the mirror of ``table`` to ``version``, reached from
        ``base`` by writing ``keys``.  When the mirror is not at
        ``base``, writes in between went unreported."""
        current = self.versions.get(table, 0)
        if version == current:
            return
        if base != current:
            self.meter.count("result_cache.wholesale_writes.gap")
            keys = None
        self._write(table, keys)
        self.versions[table] = version

    def _write(self, table: str, keys) -> None:
        """The one invalidation rule: evict the entries whose read set
        in ``table`` overlaps the written primary ``keys`` (None: the
        whole table)."""
        buckets = self._index.get(table)
        if not buckets:
            return
        doomed: set[CacheEntry] = set()
        if keys is None:
            doomed.update(*buckets.values())
        else:
            for key in keys:
                for width in range(len(key) + 1):
                    readers = buckets.get(key[:width])
                    if readers:
                        doomed |= readers
            self.meter.count("result_cache.invalidations_by_key",
                             len(doomed))
            self.meter.count("result_cache.spared",
                             self._readers[table] - len(doomed))
        for entry in doomed:
            self._unlink(entry)
            if entry.owner is None:
                del self._entries[entry.key]
            else:
                del self._staged[entry.owner][entry.key]
            self.meter.count("result_cache.invalidations")
            for name in sorted(entry.reads):
                self.meter.count(f"result_cache.invalidations.{name}")

    def _link(self, entry: CacheEntry) -> None:
        for table, prefixes in entry.reads.items():
            buckets = self._index.setdefault(table, {})
            for prefix in prefixes:
                buckets.setdefault(prefix, set()).add(entry)
            self._readers[table] += 1

    def _unlink(self, entry: CacheEntry) -> None:
        for table, prefixes in entry.reads.items():
            buckets = self._index[table]
            for prefix in prefixes:
                readers = buckets[prefix]
                readers.discard(entry)
                if not readers:
                    del buckets[prefix]
            if not buckets:
                del self._index[table]
            self._readers[table] -= 1

    # -- lookup / insert ---------------------------------------------------

    def lookup(self, sql: str) -> CacheEntry | None:
        """The entry for ``sql``, or None (counted as hit/miss)."""
        key = normalize_key(sql)
        entry = self._entries.get(key)
        if entry is None:
            self.meter.count("result_cache.misses")
            return None
        self._entries.move_to_end(key)
        self.meter.count("result_cache.hits")
        for name in sorted(entry.reads):
            self.meter.count(f"result_cache.hits.{name}")
        return entry

    def insert(self, sql: str, columns: list, rows: list,
               reads: dict | None, owner=None) -> bool:
        """Admit one result (post-miss) with its read set, ``table ->
        (version, prefixes)``; with an ``owner``, stage it until
        :meth:`promote`.  Refused when the server marked it unshareable
        (``reads`` None), it exceeds ``max_rows``, or a version is
        *behind* the mirror (the read predates a write the client
        already folded, and the entry was not there to be judged by it).
        A version *ahead* of the mirror is a fresher committed-version
        observation than any response piggyback delivered (commits from
        before this cache existed): the mirror advances to it over the
        gap."""
        if reads is None or len(rows) > self.max_rows:
            return False
        if any(version < self.versions.get(table, 0)
               for table, (version, _prefixes) in reads.items()):
            return False
        for table in sorted(reads):
            self._advance(table, None, reads[table][0], None)
        entry = CacheEntry(
            normalize_key(sql), list(columns), list(rows),
            {table: prefixes for table, (_v, prefixes) in reads.items()},
            owner)
        self._link(entry)
        if owner is None:
            self._publish(entry)
        else:
            staged = self._staged.setdefault(owner, {})
            if entry.key in staged:
                self._unlink(staged[entry.key])
            staged[entry.key] = entry
        return True

    def promote(self, owner) -> None:
        """COMMIT: what ``owner``'s transaction staged and no commit —
        its own, just folded, included — has evicted becomes visible."""
        for entry in self._staged.pop(owner, {}).values():
            entry.owner = None
            self._publish(entry)

    def discard(self, owner) -> None:
        """ROLLBACK: the staged results belong to a transaction that
        never happened."""
        for entry in self._staged.pop(owner, {}).values():
            self._unlink(entry)

    def _publish(self, entry: CacheEntry) -> None:
        """Make ``entry`` the visible result of its statement."""
        replaced = self._entries.pop(entry.key, None)
        if replaced is not None:
            self._unlink(replaced)
        self._entries[entry.key] = entry
        for name in sorted(entry.reads):
            self.meter.count(f"result_cache.misses.{name}")
        self.meter.count("result_cache.insertions")
        while len(self._entries) > self.capacity:
            _key, evicted = self._entries.popitem(last=False)
            self._unlink(evicted)
            self.meter.count("result_cache.evictions")
