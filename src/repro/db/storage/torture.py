"""Crash-consistency torture harness.

One scenario = one ``(seed, schedule)`` pair.  The harness builds a fresh
:class:`StorageManager`, drives a randomized multi-transaction workload
with a :class:`~repro.db.storage.faults.FaultInjector` installed, lets
the planned fault kill the "process" mid-flight, simulates what a real
crash leaves behind (volatile state gone, log truncated at the forced
horizon, plus an optional torn tail), runs restart recovery, and then
checks the full invariant suite:

* **durability** — every transaction whose commit was acknowledged is a
  recovery winner and its effects are on disk;
* **atomicity** — no effect of a loser (including deadlock-aborted
  transactions) is visible;
* **heap exactness** — the surviving rows are exactly the fold of the
  winner transactions' effects, no more, no less;
* **index integrity** — the B+-tree passes its structural invariants and
  agrees entry-for-entry with the heap (no orphan or missing entries);
* **idempotence** — running recovery a second time over the recovered
  volume changes nothing.

The suite is :func:`check_recovery`; the chaos harness
(:mod:`repro.db.chaos`) checks its recovered servers with it too.

Everything is deterministic: the workload script comes from
``random.Random(f"torture:{seed}:{schedule}")``, transactions are
interleaved round-robin, and the fault plan is pure in ``(seed,
schedule)`` — so a failing scenario replays exactly from its plan, and
the same scenario always leaves a byte-identical volume (see
:func:`disk_fingerprint`).
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import NamedTuple

from repro.db.storage.faults import (
    GROUP_COMMIT_SCHEDULES,
    CrashPoint,
    FaultInjector,
    derive_plan,
)
from repro.db.storage.recovery import recover
from repro.db.storage.storage_manager import StorageManager
from repro.errors import DeadlockError, LockConflictError, StorageError

_REC = struct.Struct("<qq")  # key, value (record padded to RECORD_SIZE)
#: padded so a handful of rows fills a page — the workload then spreads
#: over enough heap pages to see evictions, write-backs, and lock cycles
RECORD_SIZE = 256
INDEX_NAME = "torture.key"

#: every scenario starts with a bulk-loaded batch in this key range, so
#: the BULK_PAGE/IDX_BULK paths are under the same invariants as per-row
#: DML (and the ``bulk-crash`` schedule has something to crash into)
PRELOAD_BASE = 10_000_000
PRELOAD_ROWS = 64
PRELOAD_INDEX_BATCH = 16


def _pack_row(key, value):
    return _REC.pack(key, value).ljust(RECORD_SIZE, b"\x00")


def _unpack_row(raw):
    return _REC.unpack_from(raw)


#: the workload's shape: slots (logical clients), each owning a key
#: range and running transactions of a few operations, over a pool small
#: enough to evict and a B+-tree fanout small enough to split
SLOTS = 4
KEYS_PER_SLOT = 48
OPS_PER_TXN = (3, 8)
POOL_PAGES = 8
BTREE_MAX_KEYS = 8

#: hard ceilings that turn a scheduling bug into a failure, not a hang
_MAX_STEPS = 20_000
_MAX_TXN_RESTARTS = 6


class InvariantViolation(StorageError):
    """A recovery invariant failed; the message embeds the fault plan so
    the scenario can be replayed from the error text alone."""


def fail(plan, message):
    """Raise the :class:`InvariantViolation` for ``message`` under
    ``plan``."""
    raise InvariantViolation(f"{message} [plan {plan.to_json()}]")


class TortureReport(NamedTuple):
    """Outcome of one torture scenario."""

    seed: object
    schedule: str
    plan: dict  # the fault plan, JSON-ready
    crashed: bool  # did the injected fault actually fire mid-run
    crash_reason: str
    fired: list  # injector journal of triggers that tripped
    stats: object  # RecoveryStats from restart
    acked: int  # commits acknowledged before the crash
    resurrected: int  # unacked commits that turned out durable
    deadlock_restarts: int
    disk_retries: int
    steps: int
    rows: int  # live heap rows after recovery
    fingerprint: str  # digest of the post-recovery volume

    def to_dict(self):
        return {
            "seed": self.seed,
            "schedule": self.schedule,
            "plan": self.plan,
            "crashed": self.crashed,
            "crash_reason": self.crash_reason,
            "fired": [list(f) for f in self.fired],
            "stats": {
                "winners": sorted(self.stats.winners),
                "losers": sorted(self.stats.losers),
                "redone": self.stats.redone,
                "undone": self.stats.undone,
                "torn_records": self.stats.torn_records,
                "torn_pages": self.stats.torn_pages,
            },
            "acked": self.acked,
            "resurrected": self.resurrected,
            "deadlock_restarts": self.deadlock_restarts,
            "disk_retries": self.disk_retries,
            "steps": self.steps,
            "rows": self.rows,
            "fingerprint": self.fingerprint,
        }


def disk_fingerprint(disk):
    """Deterministic digest of every page image on the volume."""
    digest = hashlib.sha256()
    for page_id in sorted(disk._images):
        kind, image = disk._images[page_id]
        digest.update(repr((tuple(page_id), kind, len(image))).encode())
        digest.update(image)
    return digest.hexdigest()


class _Slot:
    """One logical client: a sequence of transactions over its own keys.

    Slots partition the key space (so the oracle stays simple) but share
    heap pages, which is where genuine lock conflicts and deadlocks come
    from.
    """

    __slots__ = (
        "base", "committed", "working", "script", "pos", "txn",
        "txns_left", "restarts", "pending", "cooldown", "epochs",
    )

    def __init__(self, base, txns_left):
        self.base = base
        self.committed = {}  # key -> (rid, value), as of last commit
        self.working = None  # key -> (rid, value), current txn's view
        self.script = None  # list of (op, key, value)
        self.pos = 0
        self.txn = None
        self.txns_left = txns_left
        self.restarts = 0
        #: commit history: (txn_id, {key: value}, durable_acked) per
        #: commit, in order.  Under group commit a returned-but-unforced
        #: commit is durable only if a later force covered it — the
        #: oracle walks this list against the recovered winner set.
        self.epochs = []
        #: rounds to sit out after a deadlock restart (deterministic
        #: backoff: lets the conflicting transactions drain first)
        self.cooldown = 0
        #: (txn_id, {key: value}) snapshotted just before commit() — if
        #: the crash lands inside commit, recovery decides whether this
        #: txn won
        self.pending = None

    @property
    def done(self):
        return self.txn is None and self.txns_left == 0


class _Driver:
    """Round-robin interleaving of slot transactions until the planned
    fault kills the run (or the workload completes for quiesce plans)."""

    def __init__(self, sm, file_id, rng, txns_per_slot, sync_commits):
        self.sm = sm
        self.file_id = file_id
        self.rng = rng
        self.sync_commits = sync_commits
        self.slots = [
            _Slot(base=1000 * s, txns_left=txns_per_slot) for s in range(SLOTS)
        ]
        self.next_value = 1
        self.acked = []  # txn ids whose commit returned *durable*
        self.unforced = []  # group-commit returns before the force
        self.aborted = []  # txn ids aborted (deadlock victims)
        self.deadlock_restarts = 0
        self.steps = 0

    # ------------------------------------------------------------------
    # script generation (pure bookkeeping, no storage calls)
    # ------------------------------------------------------------------
    def _make_script(self, slot):
        ops = []
        live = sorted(slot.committed)
        count = self.rng.randint(*OPS_PER_TXN)
        for _ in range(count):
            # insert-biased mix so the table outgrows the buffer pool and
            # the run sees real evictions, write-backs, and refaults
            roll = self.rng.random()
            if not live:
                op = "ins"
            elif len(live) >= KEYS_PER_SLOT:
                op = "del" if roll < 0.4 else "upd"
            elif roll < 0.55:
                op = "ins"
            elif roll < 0.85:
                op = "upd"
            else:
                op = "del"
            value = self.next_value
            self.next_value += 1
            if op == "ins":
                free = [
                    k for k in range(slot.base, slot.base + KEYS_PER_SLOT)
                    if k not in live
                ]
                key = self.rng.choice(free)
                live.append(key)
                live.sort()
            else:
                key = self.rng.choice(live)
                if op == "del":
                    live.remove(key)
            ops.append((op, key, value))
        return ops

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def drive(self):
        while True:
            progressed = False
            for slot in self.slots:
                if slot.done:
                    continue
                progressed = True
                self._step(slot)
                self.steps += 1
                if self.steps > _MAX_STEPS:
                    raise InvariantViolation(
                        "torture driver exceeded step ceiling (livelock?)"
                    )
            if not progressed:
                return

    def _step(self, slot):
        if slot.cooldown > 0:
            slot.cooldown -= 1
            return
        if slot.txn is None:
            if slot.script is None:
                slot.script = self._make_script(slot)
            slot.txn = self.sm.begin()
            slot.working = dict(slot.committed)
            slot.pos = 0
            return
        if slot.pos >= len(slot.script):
            self._commit(slot)
            return
        try:
            self._exec_op(slot, slot.script[slot.pos])
        except LockConflictError:
            return  # blocked; retry this op on the slot's next turn
        except DeadlockError:
            self._deadlock_restart(slot)
            return
        slot.pos += 1

    def _exec_op(self, slot, op):
        kind, key, value = op
        txn, sm = slot.txn, self.sm
        if kind == "ins":
            rid = sm.create_rec(txn, self.file_id, _pack_row(key, value))
            sm.index_insert(txn, INDEX_NAME, key, rid)
            slot.working[key] = (rid, value)
        elif kind == "upd":
            rid, _old = slot.working[key]
            sm.update_rec(txn, self.file_id, rid, _pack_row(key, value))
            slot.working[key] = (rid, value)
        else:
            rid, _old = slot.working[key]
            sm.delete_rec(txn, self.file_id, rid)
            sm.index_delete(txn, INDEX_NAME, key, rid)
            del slot.working[key]

    def commit(self, slot, txn, rows):
        """Commit ``txn``, after which ``slot`` holds ``rows`` (key ->
        ``(rid, value)``), under the oracle's bookkeeping."""
        slot.pending = (
            txn.txn_id, {key: value for key, (_rid, value) in rows.items()}
        )
        # a planned fault may kill the process in here
        durable = txn.commit(sync=self.sync_commits)
        (self.acked if durable else self.unforced).append(txn.txn_id)
        slot.epochs.append((*slot.pending, durable))
        slot.committed = rows
        slot.pending = None

    def _commit(self, slot):
        self.commit(slot, slot.txn, slot.working)
        slot.txn = None
        slot.script = None
        slot.working = None
        slot.txns_left -= 1
        slot.restarts = 0

    def _deadlock_restart(self, slot):
        """Abort the deadlock victim and re-run the same script under a
        fresh transaction — bounded, and deterministic because the script
        is fixed before first execution."""
        self.aborted.append(slot.txn.txn_id)
        slot.txn.abort()
        slot.txn = None
        slot.working = None
        slot.restarts += 1
        slot.cooldown = 3 * slot.restarts
        self.deadlock_restarts += 1
        if slot.restarts > _MAX_TXN_RESTARTS:
            raise InvariantViolation(
                f"slot at base {slot.base} exceeded deadlock restart bound"
            )


class CrashedState(NamedTuple):
    """A storage manager as an injected crash left it, ready to recover."""

    sm: object
    file_id: int
    driver: object
    plan: object
    survived: list  # log records the crash left behind (torn tail included)
    crashed: bool
    crash_reason: str
    fired: list
    pre_crash_pool: dict


def build_crashed_state(seed, schedule, *, txns_per_slot=6,
                        index_kind="btree"):
    """Drive the torture workload into its planned crash and stop there.

    Returns a :class:`CrashedState` whose ``sm`` holds the post-crash
    volume and whose ``survived`` is the log as the crash left it —
    exactly the inputs ``StorageManager.restart`` needs.  Used by
    :func:`run_torture` and by the traced ``recovery`` workload (which
    times the restart itself).

    ``index_kind`` swaps the secondary index structure ("btree" or
    "hash"); both must satisfy the identical invariant suite.  Schedules
    in ``GROUP_COMMIT_SCHEDULES`` run every commit asynchronously under a
    group-commit log, so a returned commit may legitimately be lost."""
    plan = derive_plan(seed, schedule)
    rng = random.Random(f"torture:{seed}:{schedule}")
    grouped = schedule in GROUP_COMMIT_SCHEDULES
    sm = StorageManager(
        pool_pages=POOL_PAGES, btree_max_keys=BTREE_MAX_KEYS,
        hash_buckets=4,  # tiny directory: force overflow chains
        wal_group_size=3 if grouped else 1,
        wal_group_window=24 if grouped else 0,
    )
    file_id = sm.create_file(RECORD_SIZE)
    sm.create_index(INDEX_NAME, kind=index_kind)
    driver = _Driver(sm, file_id, rng, txns_per_slot, sync_commits=not grouped)

    injector = FaultInjector(plan)
    sm.install_faults(injector)
    crashed = False
    crash_reason = ""
    try:
        _bulk_preload(sm, file_id, driver)
        driver.drive()
    except CrashPoint as death:
        crashed = True
        crash_reason = str(death)
    return CrashedState(
        sm=sm, file_id=file_id, driver=driver, plan=plan,
        survived=surviving_log(sm, plan), crashed=crashed,
        crash_reason=crash_reason, fired=list(injector.fired),
        pre_crash_pool=sm.pool.stats(),
    )


def _bulk_preload(sm, file_id, driver):
    """Seed the volume through the bulk paths, under oracle bookkeeping.

    The preload rides in a pseudo-slot so the invariant checker treats
    it like any other transaction: if the planned crash lands inside the
    bulk load, atomicity says none of it survives; after the commit is
    acknowledged, durability says all of it does."""
    slot = _Slot(base=PRELOAD_BASE, txns_left=0)
    driver.slots.append(slot)
    keys = list(range(PRELOAD_BASE, PRELOAD_BASE + PRELOAD_ROWS))
    values = {}
    for key in keys:
        values[key] = driver.next_value
        driver.next_value += 1
    txn = sm.begin()
    rids = sm.bulk_load(
        txn, file_id, (_pack_row(key, values[key]) for key in keys)
    )
    sm.index_bulk_load(
        txn, INDEX_NAME, zip(keys, rids), batch_size=PRELOAD_INDEX_BATCH
    )
    driver.commit(
        slot, txn, {key: (rid, values[key]) for key, rid in zip(keys, rids)}
    )


def run_torture(seed, schedule, *, index_kind="btree"):
    """Run one torture scenario; returns a :class:`TortureReport` or
    raises :class:`InvariantViolation` with a replayable plan."""
    state = build_crashed_state(seed, schedule, index_kind=index_kind)
    sm, driver = state.sm, state.driver

    stats = sm.restart(state.survived)
    sm.pool.flush_all()
    fingerprint = disk_fingerprint(sm.disk)

    txn = sm.begin()
    rows = [(rid, *_unpack_row(raw))
            for rid, raw in sm.scan_file(txn, state.file_id)]
    txn.commit()
    _states, resurrected = check_recovery(
        sm, stats, state.plan, acked=driver.acked, aborted=driver.aborted,
        histories=[(slot.epochs, slot.pending) for slot in driver.slots],
        rows=rows, index_name=INDEX_NAME,
    )
    return TortureReport(
        seed=seed, schedule=schedule, plan=state.plan.to_dict(),
        crashed=state.crashed, crash_reason=state.crash_reason,
        fired=state.fired, stats=stats, acked=len(driver.acked),
        resurrected=resurrected,
        deadlock_restarts=driver.deadlock_restarts,
        disk_retries=state.pre_crash_pool["disk_retries"],
        steps=driver.steps, rows=len(rows), fingerprint=fingerprint,
    )


def surviving_log(sm, plan):
    """What the log looks like after the crash: everything through the
    forced horizon survives; ``plan.torn_tail`` further records linger
    past it, the last of them corrupted mid-record.

    Public: the chaos harness (:mod:`repro.db.chaos`) plays the role of
    the operating system for server crashes and reuses this to decide
    what a restarted server gets to recover from."""
    records = sm.log.records()
    horizon = sm.log.flushed_lsn + 1
    survived = records[:horizon]
    tail = records[horizon:horizon + plan.torn_tail]
    if tail:
        tail[-1] = tail[-1]._replace(kind="#TORN#")
    return survived + tail


def check_recovery(sm, stats, plan, *, acked, aborted, histories, rows,
                   index_name):
    """Check a restarted storage manager against the crash oracle.

    ``acked`` are the transaction ids whose commit returned durable and
    ``aborted`` those rolled back before the crash.  Each history is one
    writer's ``(epochs, pending)``: its commits in order as ``(txn_id,
    {key: value}, durable)``, and the ``(txn_id, {key: value})`` commit
    the crash interrupted (or ``None``).  ``rows`` is the recovered heap
    as ``(rid, key, value)`` and ``index_name`` its index on ``key``.

    Checks durability, atomicity, per-writer prefix winners, heap
    exactness, index agreement (:func:`check_heap`) and idempotence, and
    raises :class:`InvariantViolation` on the first that fails.  Returns
    ``(states, resurrected)``: each history's recovered ``{key: value}``
    state, and how many interrupted commits proved durable anyway.
    """
    # durability: commits acknowledged as durable must be winners;
    # atomicity: aborted transactions must not be
    for txn_id in acked:
        if txn_id not in stats.winners:
            fail(plan, f"acked txn {txn_id} lost by recovery")
    for txn_id in aborted:
        if txn_id in stats.winners:
            fail(plan, f"aborted txn {txn_id} won recovery")

    # group commit may lose a returned-but-unforced commit, but only
    # from the tail: a writer's commits hit the log in order, and the
    # durable prefix is monotone, so one writer's winners must be a
    # prefix of its commit sequence
    states = []
    expected = {}
    resurrected = 0
    for number, (epochs, pending) in enumerate(histories):
        won = [txn_id in stats.winners for txn_id, _state, _durable in epochs]
        if any(won[i] and not won[i - 1] for i in range(1, len(won))):
            fail(plan, f"history {number} has non-prefix winners "
                       f"{[epoch[0] for epoch in epochs]} -> {won}")
        # the newest surviving commit's state — or the interrupted
        # commit's, if its record proved durable (resurrection)
        kept = sum(won)
        state = epochs[kept - 1][1] if kept else {}
        if pending is not None and pending[0] in stats.winners:
            state = pending[1]
            resurrected += 1
        states.append(state)
        expected.update(state)
    check_heap(sm, plan, rows, expected, index_name)

    # idempotence: a second recovery pass over the recovered volume is a
    # no-op on every page image
    images_before = dict(sm.disk._images)
    recover(sm.disk, sm.log.records(durable_only=True))
    if dict(sm.disk._images) != images_before:
        fail(plan, "second recovery pass changed the volume")
    return states, resurrected


def check_heap(sm, plan, rows, expected, index_name):
    """The heap ``rows`` (``(rid, key, value)``) must hold exactly
    ``expected`` (key -> value), and index ``index_name`` must pass its
    structural invariants and agree with the heap entry for entry."""
    rids = {}
    values = {}
    for rid, key, value in rows:
        if key in rids:
            fail(plan, f"duplicate key {key} in recovered heap")
        rids[key] = rid
        values[key] = value
    if values != expected:
        missing = sorted(set(expected) - set(values))
        extra = sorted(set(values) - set(expected))
        wrong = sorted(k for k in set(expected) & set(values)
                       if expected[k] != values[k])
        fail(plan, f"heap mismatch: missing keys {missing}, extra keys "
                   f"{extra}, wrong values at {wrong}")

    index = sm.index(index_name)
    index.check_invariants()
    entries = list(index.range_scan())
    if len(entries) != len(rids):
        fail(plan, f"index has {len(entries)} entries for {len(rids)} rows")
    for key, rid in entries:
        if key not in rids:
            fail(plan, f"index entry for key {key} has no heap row (orphan)")
        if rids[key] != rid:
            fail(plan, f"index rid {rid} disagrees with heap rid {rids[key]} "
                       f"at key {key}")
