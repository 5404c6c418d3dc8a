"""Chaos-under-load: crash consistency with live multi-session traffic.

PR 4's torture harness proved crash consistency *at rest*: one driver,
raw storage calls, a planned fault, recovery, invariants.  This module
proves the same guarantees *under serving conditions*: a seeded mix of
SQL clients (OLTP point transactions, scans with deadlines, bulk loads)
runs against a deterministic :class:`~repro.db.server.SqlServer` while a
:class:`~repro.db.storage.faults.FaultInjector` fires; the planned fault
kills the "process" mid-traffic; the harness plays the role of the
operating system (volatile state gone, log truncated at the forced
horizon via :func:`~repro.db.storage.torture.surviving_log`); the
storage manager restarts through recovery; and the invariant suite
checks, per client:

* **durability** — every commit acknowledged durable is a recovery
  winner and its rows are on disk;
* **atomicity** — no partial transaction is visible: the recovered heap
  is *exactly* the fold of winner commits, and within one client the
  winners form a prefix of its commit order (group commit may only lose
  a suffix);
* **clean failure** — every error any client observed, before or during
  the crash, carries the :class:`~repro.errors.TransientError` mixin
  (``ServerBusy``, ``DeadlineExceeded``, ``TransactionAborted``,
  ``ConnectionLost``, ...): a chaos run may slow clients down but never
  hands them a non-retryable failure;
* **index integrity** — the secondary index passes its structural
  invariants and agrees entry-for-entry with the heap;
* **idempotence** — a second recovery pass over the recovered volume
  changes no page image;
* **service resumes** — after recovery a fresh server accepts the
  reconnecting clients and a faultless resume round completes, leaving
  the heap equal to the oracle again.

The recovery checks are the torture harness's own
(:func:`~repro.db.storage.torture.check_recovery`).

Everything is deterministic and replayable from ``(seed, schedule)``:
client scripts come from per-client seeded RNGs, the server runs in
deterministic pump mode on a virtual clock (every backoff decision draws
from per-session seeded RNGs), and the fault plan is pure in its inputs
— the report's volume fingerprint is bit-identical across re-runs.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.db.database import Database
from repro.db.server import ServerConfig, SqlServer
from repro.db.storage.faults import (
    GROUP_COMMIT_SCHEDULES,
    CrashPoint,
    FaultInjector,
    derive_plan,
)
from repro.db.storage.torture import (
    check_heap,
    check_recovery,
    disk_fingerprint,
    fail,
    surviving_log,
)
from repro.errors import ServerBusy, TransientError

TABLE = "kv"
INDEX_NAME = "kv.k"

#: tenant -> fairness weight; four tenants so quota/fairness paths are
#: always exercised (the acceptance soak uses the same shape, larger)
TENANT_WEIGHTS = {"oltp": 4, "analytics": 2, "batch": 1, "admin": 1}

#: (tenant, role) per client: four writers, two scanners with
#: deadlines, one bulk loader, one cross-partition reader
CLIENT_ROLES = (
    ("oltp", "write"),
    ("oltp", "write"),
    ("oltp", "write"),
    ("analytics", "scan"),
    ("batch", "bulk"),
    ("analytics", "scan"),
    ("admin", "read"),
    ("oltp", "write"),
)

#: key-space layout: writers own [1000*cid, 1000*cid + keys); the bulk
#: loader appends fresh keys from its own high band
_BULK_BASE = 500_000

#: the traffic's shape: a pool small enough to evict, each writer's key
#: range, and the transactions each writer or bulk loader runs before
#: the crash and in the resume round
POOL_PAGES = 12
KEYS_PER_CLIENT = 18
TXNS_PER_CLIENT = 4
RESUME_TXNS = 2

#: :func:`~repro.db.storage.faults.derive_plan` intensity: the traffic
#: fires fault points far more often than the torture workload, so hit
#: indices stretch to land crashes throughout the run
INTENSITY = 3.0

#: hard ceilings that turn a livelock into a failure, not a hang
_MAX_ROUNDS = 60_000
_MAX_CLIENT_RESTARTS = 24


class ChaosReport(NamedTuple):
    """Outcome of one chaos scenario."""

    seed: object
    schedule: str
    plan: dict
    crashed: bool            # did the planned fault fire mid-traffic
    crash_reason: str
    fired: list              # injector journal
    acked: int               # commits acknowledged durable pre-crash
    unforced: int            # group-commit returns before their force
    resurrected: int         # in-flight commits that proved durable
    client_errors: dict      # error type name -> count (all retryable)
    shed: int                # admission-control rejections
    server_retries: int      # budgeted statement restarts
    client_restarts: int     # whole-transaction client restarts
    rounds: int
    resumed_commits: int     # commits completed after recovery
    rows: int                # live heap rows at the end
    fingerprint: str         # digest of the final volume

    def to_dict(self):
        return {
            "seed": self.seed,
            "schedule": self.schedule,
            "plan": self.plan,
            "crashed": self.crashed,
            "crash_reason": self.crash_reason,
            "fired": [list(f) for f in self.fired],
            "acked": self.acked,
            "unforced": self.unforced,
            "resurrected": self.resurrected,
            "client_errors": dict(self.client_errors),
            "shed": self.shed,
            "server_retries": self.server_retries,
            "client_restarts": self.client_restarts,
            "rounds": self.rounds,
            "resumed_commits": self.resumed_commits,
            "rows": self.rows,
            "fingerprint": self.fingerprint,
        }


class _Client:
    """One scripted session: deterministic traffic over its own keys.

    Writers run explicit transactions (insert/update/delete plus
    validated read-your-writes point queries) and keep the torture-style
    epoch oracle; scanners and the admin reader run autocommit
    statements whose only obligation is that failures stay retryable.
    """

    def __init__(self, cid, tenant, role, seed_label, txns_left):
        self.cid = cid
        self.tenant = tenant
        self.role = role
        self.rng = random.Random(f"chaos:{seed_label}:client:{cid}")
        self.base = 1000 * cid
        self.conn = None
        self.committed = {}      # key -> value as of last commit
        self.working = None      # key -> value inside the open txn
        self.script = None
        self.pos = 0
        self.in_txn = False
        self.txns_left = txns_left
        self.ticket = None
        self.ticket_op = None
        self.pending = None      # (txn_id, state) snapshotted pre-commit
        self.epochs = []         # (txn_id, state, durable_acked)
        self.restarts = 0
        self.cooldown = 0
        self.errors = []         # every exception this client observed
        self.next_value = cid * 1_000_000 + 1
        self.bulk_cursor = 0

    @property
    def done(self):
        return (self.txns_left == 0 and not self.in_txn
                and self.ticket is None)

    # ------------------------------------------------------------------
    # deterministic script generation (no storage calls)
    # ------------------------------------------------------------------
    def _take_value(self):
        value = self.next_value
        self.next_value += 1
        return value

    def _make_script(self):
        rng = self.rng
        if self.role == "bulk":
            count = rng.randint(8, 20)
            start = _BULK_BASE + 1000 * self.cid + self.bulk_cursor
            self.bulk_cursor += count
            return [("bulk", start, count)]
        if self.role == "scan":
            return [
                ("scan", rng.randint(0, 10_000),
                 rng.choice((None, None, 20 + rng.randint(0, 30))))
                for _ in range(rng.randint(2, 4))
            ]
        if self.role == "read":
            writer_bases = [1000 * i for i, (_t, r) in
                            enumerate(CLIENT_ROLES) if r == "write"]
            return [
                ("peek", rng.choice(writer_bases)
                 + rng.randint(0, KEYS_PER_CLIENT - 1))
                for _ in range(rng.randint(2, 5))
            ]
        # write role: torture-style insert-biased mix + validated reads
        ops = []
        live = sorted(self.committed)
        for _ in range(rng.randint(3, 7)):
            roll = rng.random()
            if not live:
                op = "ins"
            elif len(live) >= KEYS_PER_CLIENT:
                op = "del" if roll < 0.4 else "upd"
            elif roll < 0.5:
                op = "ins"
            elif roll < 0.72:
                op = "upd"
            elif roll < 0.88:
                op = "del"
            else:
                op = "get"
            if op == "ins":
                free = [k for k in range(self.base,
                                         self.base + KEYS_PER_CLIENT)
                        if k not in live]
                key = rng.choice(free)
                live.append(key)
                live.sort()
            else:
                key = rng.choice(live)
                if op == "del":
                    live.remove(key)
            ops.append((op, key, self._take_value()))
        return ops

    # ------------------------------------------------------------------
    # one turn of the client state machine
    # ------------------------------------------------------------------
    def turn(self, driver):
        if self.done:
            return
        if self.cooldown > 0:
            self.cooldown -= 1
            return
        if self.ticket is not None:
            if self.ticket.done:
                self._absorb(driver)
            return
        if self.role in ("scan", "read"):
            self._turn_autocommit(driver)
            return
        if not self.in_txn:
            if self.script is None:
                self.script = self._make_script()
            self.conn.begin()  # a CrashPoint here flies to the driver
            self.in_txn = True
            self.working = dict(self.committed)
            self.pos = 0
            return
        if self.pos >= len(self.script):
            self._commit(driver)
            return
        self._submit(driver, self.script[self.pos])

    def _turn_autocommit(self, driver):
        if self.script is None:
            self.script = self._make_script()
            self.pos = 0
        if self.pos >= len(self.script):
            self.script = None
            self.txns_left -= 1
            return
        self._submit(driver, self.script[self.pos])

    def _submit(self, driver, op):
        kind = op[0]
        try:
            if kind == "bulk":
                _verb, start, count = op
                rows = [(start + i, self._take_value())
                        for i in range(count)]
                ticket = self.conn.submit_bulk(TABLE, rows)
                op = ("bulk", start, rows)
            elif kind == "scan":
                _verb, threshold, deadline = op
                ticket = self.conn.submit(
                    f"SELECT k FROM {TABLE} WHERE v >= {threshold}",
                    deadline=deadline,
                )
            elif kind == "peek":
                ticket = self.conn.submit(
                    f"SELECT v FROM {TABLE} WHERE k = {op[1]}")
            elif kind == "get":
                ticket = self.conn.submit(
                    f"SELECT v FROM {TABLE} WHERE k = {op[1]}")
            elif kind == "ins":
                _verb, key, value = op
                ticket = self.conn.submit(
                    f"INSERT INTO {TABLE} (k, v) VALUES ({key}, {value})")
            elif kind == "upd":
                _verb, key, value = op
                ticket = self.conn.submit(
                    f"UPDATE {TABLE} SET v = {value} WHERE k = {key}")
            else:  # del
                _verb, key, _value = op
                ticket = self.conn.submit(
                    f"DELETE FROM {TABLE} WHERE k = {key}")
        except ServerBusy as exc:
            self.errors.append(exc)
            self.cooldown = 1 + self.rng.randint(0, 2)
            return
        self.ticket = ticket
        self.ticket_op = op

    def _absorb(self, driver):
        ticket, op = self.ticket, self.ticket_op
        self.ticket = None
        self.ticket_op = None
        try:
            result = ticket.outcome()
        except Exception as exc:
            self.errors.append(exc)
            if not isinstance(exc, TransientError):
                driver.fail(
                    f"client {self.cid} saw non-retryable "
                    f"{type(exc).__name__}: {exc}"
                )
            if self.in_txn:
                self._restart_txn(driver)
            else:
                self.pos += 1  # autocommit op: record the error, move on
            return
        self._apply(driver, op, result)
        self.pos += 1

    def _apply(self, driver, op, result):
        """Validate one successful result against the oracle."""
        kind = op[0]
        if kind in ("scan", "peek"):
            return
        if kind == "get":
            expected = self.working.get(op[1])
            got = [row[0] for row in result.rows]
            want = [] if expected is None else [expected]
            if got != want:
                driver.fail(
                    f"client {self.cid} read k={op[1]} -> {got}, "
                    f"expected {want} (read-your-writes violated)"
                )
            return
        if kind == "bulk":
            _verb, _start, rows = op
            if result.rows[0][0] != len(rows):
                driver.fail(
                    f"bulk load reported {result.rows[0][0]} rows "
                    f"for {len(rows)}"
                )
            for key, value in rows:
                self.working[key] = value
            return
        _verb, key, value = op
        affected = result.rows[0][0]
        if affected != 1:
            driver.fail(
                f"client {self.cid} {kind} k={key} touched {affected} "
                "rows (expected exactly 1)"
            )
        if kind == "ins" or kind == "upd":
            self.working[key] = value
        else:
            del self.working[key]

    def _commit(self, driver):
        txn_id = self.conn.session.txn.txn_id
        self.pending = (txn_id, dict(self.working))
        try:
            # a planned fault may kill the process inside this commit;
            # self.pending survives for the resurrection oracle
            durable = self.conn.commit()
        except CrashPoint:
            raise
        except Exception as exc:
            if not isinstance(exc, TransientError):
                raise
            self.errors.append(exc)
            self.pending = None
            self._restart_txn(driver)
            return
        self.epochs.append((txn_id, self.pending[1], durable))
        (driver.acked if durable else driver.unforced).append(txn_id)
        self.committed = self.pending[1]
        self.pending = None
        self.in_txn = False
        self.script = None
        self.working = None
        self.txns_left -= 1
        self.restarts = 0

    def _restart_txn(self, driver):
        """The server aborted our transaction (conflict, deadline,
        deadlock): rollback and replay the same script from the top."""
        try:
            self.conn.rollback()
        except CrashPoint:
            raise
        except Exception as exc:
            if not isinstance(exc, TransientError):
                raise
            self.errors.append(exc)  # e.g. ConnectionLost after a crash
        self.in_txn = False
        self.working = None
        self.pos = 0
        self.restarts += 1
        driver.client_restarts += 1
        if self.restarts > _MAX_CLIENT_RESTARTS:
            driver.fail(
                f"client {self.cid} exceeded {_MAX_CLIENT_RESTARTS} "
                "transaction restarts (livelock?)"
            )
        # capped exponential backoff with seeded jitter: UPDATE/DELETE
        # statements scan (and share-lock) the whole table, so write
        # transactions serialize under no-wait 2PL — losers must back
        # off long enough for a whole competing transaction to finish
        self.cooldown = (min(3 * (2 ** min(self.restarts, 5)), 72)
                         + self.rng.randint(0, 7))


class _ChaosDriver:
    """Builds the database + server + clients and drives the traffic."""

    def __init__(self, seed, schedule):
        self.seed = seed
        self.schedule = schedule
        self.label = f"{seed}:{schedule}"
        self.plan = derive_plan(seed, schedule, intensity=INTENSITY)
        self.grouped = schedule in GROUP_COMMIT_SCHEDULES
        self.db = Database(
            pool_pages=POOL_PAGES,
            wal_group_size=3 if self.grouped else 1,
            wal_group_window=24 if self.grouped else 0,
        )
        # schema setup is not under test: build it before faults install
        self.db.execute(f"CREATE TABLE {TABLE} (k INT, v INT)")
        self.db.create_index(TABLE, "k")
        self.server = self.make_server()
        self.clients = [
            _Client(cid, tenant, role, self.label,
                    TXNS_PER_CLIENT if role in ("write", "bulk") else 2)
            for cid, (tenant, role) in enumerate(CLIENT_ROLES)
        ]
        for client in self.clients:
            client.conn = self.server.connect(client.tenant)
        self.acked = []
        self.unforced = []
        self.client_restarts = 0
        self.rounds = 0

    def make_server(self):
        return SqlServer(self.db, ServerConfig(
            workers=0,
            quantum_rows=6,
            max_queue=6,          # tight: admission sheds under bursts
            tenants=TENANT_WEIGHTS,
            stmt_cache_size=8,
            retry_budget=5,
            seed=self.label,
            sync_commits=not self.grouped,
        ))

    def fail(self, message):
        fail(self.plan, message)

    def heap_rows(self):
        """The table's rows as ``(rid, key, value)``."""
        sm = self.db.storage
        txn = sm.begin()
        rows = [(rid, *row) for rid, row in
                self.db.catalog.table(TABLE).scan(txn)]
        txn.commit()
        return rows

    def drive(self):
        """Run traffic until every client finishes or the fault fires.

        Returns ``(crashed, crash_reason)``.  On a crash the server is
        abandoned: every in-flight ticket fails with a retryable
        ConnectionLost, exactly what clients of a dead process see.
        """
        try:
            while not all(client.done for client in self.clients):
                for client in self.clients:
                    client.turn(self)
                self.server.step()
                self.server.step()
                self.rounds += 1
                if self.rounds > _MAX_ROUNDS:
                    self.fail("chaos driver exceeded round ceiling")
            self.server.pump()
            return False, ""
        except CrashPoint as death:
            self.server.abandon(str(death))
            return True, str(death)


def run_chaos(seed, schedule):
    """Run one chaos scenario; returns a :class:`ChaosReport` or raises
    :class:`~repro.db.storage.torture.InvariantViolation` with the
    replayable fault plan embedded in the message."""
    driver = _ChaosDriver(seed, schedule)
    injector = FaultInjector(driver.plan)
    driver.db.storage.install_faults(injector)
    crashed, crash_reason = driver.drive()
    pre_crash_stats = driver.server.stats()

    # -- play the operating system: volatile state dies, the log is what
    # the forced horizon (plus any torn tail) left behind, then recover
    sm = driver.db.storage
    stats = sm.restart(surviving_log(sm, driver.plan))
    table = driver.db.catalog.table(TABLE)
    table.row_count = sm.file_record_count(table.file_id)

    _collect_inflight_errors(driver)
    _check_errors_retryable(driver)
    states, resurrected = check_recovery(
        sm, stats, driver.plan, acked=driver.acked, aborted=(),
        histories=[(c.epochs, c.pending) for c in driver.clients],
        rows=driver.heap_rows(), index_name=INDEX_NAME,
    )

    # -- service resumes: a fresh server, reconnecting clients that start
    # from their recovered state, one faultless round; the heap must
    # equal the oracle again
    pre_resume_commits = sum(len(c.epochs) for c in driver.clients)
    driver.server = driver.make_server()
    for client, state in zip(driver.clients, states):
        client.conn = driver.server.connect(client.tenant)
        client.committed = dict(state)
        client.script = None
        client.pos = 0
        client.in_txn = False
        client.working = None
        client.pending = None
        client.ticket = None
        client.ticket_op = None
        client.restarts = 0
        client.cooldown = 0
        client.txns_left = (RESUME_TXNS
                            if client.role in ("write", "bulk") else 1)
    resumed_crash, reason = driver.drive()
    if resumed_crash:
        driver.fail(f"faultless resume phase crashed: {reason}")
    _check_errors_retryable(driver)
    final_expected = {}
    for client in driver.clients:
        final_expected.update(client.committed)
    rows = driver.heap_rows()
    check_heap(sm, driver.plan, rows, final_expected, INDEX_NAME)
    resumed_commits = (
        sum(len(c.epochs) for c in driver.clients) - pre_resume_commits
    )
    resume_stats = driver.server.stats()

    sm.pool.flush_all()
    errors = {}
    for client in driver.clients:
        for exc in client.errors:
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
    return ChaosReport(
        seed=seed, schedule=schedule, plan=driver.plan.to_dict(),
        crashed=crashed, crash_reason=crash_reason,
        fired=list(injector.fired), acked=len(driver.acked),
        unforced=len(driver.unforced), resurrected=resurrected,
        client_errors=errors,
        shed=pre_crash_stats["shed"] + resume_stats["shed"],
        server_retries=(pre_crash_stats["retries"]
                        + resume_stats["retries"]),
        client_restarts=driver.client_restarts, rounds=driver.rounds,
        resumed_commits=resumed_commits, rows=len(rows),
        fingerprint=disk_fingerprint(sm.disk),
    )


def _collect_inflight_errors(driver):
    """Absorb tickets that were in flight when the server died."""
    for client in driver.clients:
        if client.ticket is not None and client.ticket.done:
            try:
                client.ticket.outcome()
            except Exception as exc:
                client.errors.append(exc)
            client.ticket = None
            client.ticket_op = None


def _check_errors_retryable(driver):
    for client in driver.clients:
        for exc in client.errors:
            if not isinstance(exc, TransientError):
                driver.fail(
                    f"client {client.cid} observed non-retryable "
                    f"{type(exc).__name__}: {exc}"
                )
