"""Transactional in-memory database (the MySQL analogue).

Properties the paper relies on (§3.3):

* **Crash safety.**  Committed data survives a database crash; transactions
  in flight at the crash are rolled back during recovery from the
  write-ahead log.  "MySQL is crash-safe and recovers fast for our
  datasets."
* **Transactional rollback.**  When an EJB is microrebooted mid-
  transaction, the container aborts the transaction and the database rolls
  it back.
* **Sessions and locks.**  Connections are grouped into database sessions;
  row locks belong to sessions and are released when the session ends — or
  leak until the session times out, which is exactly the §7 limitation
  scenario where a component acquires a connection behind the platform's
  back.
* **Manual repair.**  Corrupted table contents (Table 2's bottom rows) are
  fixed by :meth:`Database.repair_table`, the stand-in for a DBA's manual
  reconstruction.

Equality ``select`` queries are served from lazily-built secondary hash
indexes, maintained by every mutation path (including undo and the
fault-injection surface), so the simulated service can sustain paper-scale
datasets (1.5 M bids) without the simulator itself becoming the bottleneck.

**Stored rows are never mutated.**  Every write — insert, update, undo,
:meth:`_Table.set_column` behind the fault-injection and manual-repair
surfaces — stores a new row dict in the table's pk → row map and leaves
the old dict as it was.  So a copy of a table is a copy of that map
alone: :meth:`Database.snapshot`, :meth:`_Table.replace_all` (snapshot
restores, :meth:`Database.repair_table`, a shadow's resync) and the
process-wide dataset snapshot cache share the row dicts with the table
they came from, and a later write to either side cannot reach the other.
Callers get copies: :meth:`Database.read` and :meth:`Database.select`
return fresh dicts, which they may change freely.  Code that reaches
into ``_Table.rows`` directly (the integrity audit, fault injection)
must treat the dicts it finds there as read-only.
"""

from itertools import count, islice

from repro.sim.resources import Lock

#: Every table's primary-key column.
PRIMARY_KEY = "id"


class DatabaseError(Exception):
    """Base class for database failures."""


class DatabaseDownError(DatabaseError):
    """The database process is crashed or still recovering."""


class DuplicateKeyError(DatabaseError):
    """INSERT with a primary key that already exists."""


class SchemaError(DatabaseError):
    """Type or constraint violation (e.g. a non-integer primary key)."""


class _Table:
    """One table: rows keyed by an integer primary key, plus hash indexes."""

    def __init__(self, name):
        self.name = name
        self.rows = {}
        self.indexes = {}  # column -> {value -> set(pk)}

    def validate_pk(self, pk):
        if not isinstance(pk, int) or isinstance(pk, bool):
            raise SchemaError(
                f"{self.name}.{PRIMARY_KEY} must be an integer, got {pk!r}"
            )

    # -- index maintenance ----------------------------------------------
    def ensure_index(self, column):
        index = self.indexes.get(column)
        if index is None:
            index = {}
            for pk, row in self.rows.items():
                index.setdefault(self._key(row.get(column)), set()).add(pk)
            self.indexes[column] = index
        return index

    @staticmethod
    def _key(value):
        # Index keys must be hashable even for corrupted values.
        try:
            hash(value)
        except TypeError:
            return repr(value)
        return value

    def index_add(self, pk, row):
        for column, index in self.indexes.items():
            index.setdefault(self._key(row.get(column)), set()).add(pk)

    def index_remove(self, pk, row):
        for column, index in self.indexes.items():
            bucket = index.get(self._key(row.get(column)))
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index[self._key(row.get(column))]

    # -- mutation primitives (index-safe; undo closures use these) -------
    def put_row(self, pk, row):
        old = self.rows.get(pk)
        if old is not None:
            self.index_remove(pk, old)
        self.rows[pk] = row
        self.index_add(pk, row)

    def pop_row(self, pk):
        row = self.rows.pop(pk, None)
        if row is not None:
            self.index_remove(pk, row)
        return row

    def set_column(self, pk, column, value):
        row = self.rows[pk]
        self.index_remove(pk, row)
        # An updated copy, never the stored dict: snapshots share it.  The
        # pk keeps its position in ``rows``.
        row = self.rows[pk] = {**row, column: value}
        self.index_add(pk, row)

    def replace_all(self, rows):
        """Make this table hold ``rows`` (pk → row), sharing the row dicts."""
        self.rows = dict(rows)
        for column in list(self.indexes):
            del self.indexes[column]


class DbSession:
    """A client session: the unit of lock ownership and timeout cleanup."""

    _ids = count(1)

    def __init__(self, database, owner):
        self.session_id = next(DbSession._ids)
        self.database = database
        self.owner = owner
        self.open = True
        self.locks = []  # Lock objects held by this session

    def lock_row(self, table, pk):
        """Return an event granting this session the row lock."""
        if not self.open:
            raise DatabaseError(f"session {self.session_id} is closed")
        lock = self.database._row_lock(table, pk)
        if lock not in self.locks:
            self.locks.append(lock)
        return lock.acquire(self)

    def close(self):
        """End the session, releasing every lock it holds."""
        if not self.open:
            return
        self.open = False
        for lock in self.locks:
            lock.force_release_owner(self)
        self.locks = []
        self.database._sessions.pop(self.session_id, None)


class Database:
    """Shared persistent store with per-transaction undo logging."""

    def __init__(self, kernel, recovery_time=2.0, session_idle_timeout=120.0):
        self.kernel = kernel
        self.recovery_time = recovery_time
        self.session_idle_timeout = session_idle_timeout
        self.tables = {}
        self.running = True
        #: tx_id -> list of (global sequence number, undo callable).  The
        #: sequence numbers let crash recovery undo *interleaved* in-flight
        #: transactions in reverse global order (LSN-style), which is the
        #: only order that is correct when they touched the same rows.
        self._undo = {}
        self._undo_seq = 0
        self._locks = {}  # (table, pk) -> Lock
        self._sessions = {}

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def create_table(self, name):
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        self.tables[name] = _Table(name)

    def _table(self, name):
        self._assert_up()
        table = self.tables.get(name)
        if table is None:
            raise SchemaError(f"no such table {name!r}")
        return table

    def _assert_up(self):
        if not self.running:
            raise DatabaseDownError("database is not running")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, table_name, pk):
        """One row by primary key (a copy), or None."""
        row = self._table(table_name).rows.get(pk)
        return dict(row) if row is not None else None

    def select(self, table_name, *, limit=None, key=None, **equals):
        """Rows matching the column=value filters (copies).

        Single-column equality filters are served from a hash index (built
        on first use); multi-column filters narrow via the first column's
        index and scan the rest.  ``key`` sorts the matches (stably, like
        ``sorted``) and ``limit`` keeps the first ``limit`` of them; only
        the rows returned are copied, so the result equals a full select
        followed by ``sort(key=key)`` and ``[:limit]``.  ``limit`` and
        ``key`` are therefore not usable as column names here.
        """
        table = self._table(table_name)
        rows = table.rows
        if not equals:
            matches = rows.values()
        else:
            columns = sorted(equals)
            first = columns[0]
            pks = table.ensure_index(first).get(table._key(equals[first]), ())
            matches = map(rows.__getitem__, pks)
            if len(columns) > 1:
                rest = columns[1:]
                matches = (
                    row for row in matches
                    if all(row.get(col) == equals[col] for col in rest)
                )
        if key is not None:
            matches = sorted(matches, key=key)
        if limit is not None:
            matches = islice(matches, limit)
        return [dict(row) for row in matches]

    def count(self, table_name):
        return len(self._table(table_name).rows)

    def max_pk(self, table_name):
        """Largest primary key in the table (0 if empty)."""
        table = self._table(table_name)
        numeric = [pk for pk in table.rows if isinstance(pk, int)]
        return max(numeric, default=0)

    # ------------------------------------------------------------------
    # Writes (undo-logged when a transaction id is supplied)
    # ------------------------------------------------------------------
    def insert(self, table_name, row, tx_id=None):
        table = self._table(table_name)
        pk = row.get(PRIMARY_KEY)
        table.validate_pk(pk)
        if pk in table.rows:
            raise DuplicateKeyError(f"{table_name}.{PRIMARY_KEY}={pk}")
        table.put_row(pk, dict(row))
        self._log_undo(tx_id, lambda: table.pop_row(pk))

    def update(self, table_name, pk, fields, tx_id=None):
        table = self._table(table_name)
        row = table.rows.get(pk)
        if row is None:
            raise DatabaseError(f"{table_name}: no row with pk {pk!r}")
        table.put_row(pk, {**row, **fields})
        self._log_undo(tx_id, lambda: table.put_row(pk, row))

    def delete(self, table_name, pk, tx_id=None):
        table = self._table(table_name)
        if pk not in table.rows:
            raise DatabaseError(f"{table_name}: no row with pk {pk!r}")
        row = table.pop_row(pk)
        self._log_undo(tx_id, lambda: table.put_row(pk, row))

    def _log_undo(self, tx_id, action):
        if tx_id is None:
            return  # auto-commit: durable immediately, not rollback-able
        self._undo_seq += 1
        self._undo.setdefault(tx_id, []).append((self._undo_seq, action))

    # ------------------------------------------------------------------
    # Transaction resource protocol
    # ------------------------------------------------------------------
    def commit_transaction(self, tx_id):
        self._assert_up()
        self._undo.pop(tx_id, None)

    def rollback_transaction(self, tx_id):
        # Rollback must work even "during" a server-side crash cleanup;
        # only a crashed database cannot roll back (it will on recovery).
        if not self.running:
            return
        for _seq, action in reversed(self._undo.pop(tx_id, [])):
            action()

    @property
    def in_flight_transactions(self):
        return len(self._undo)

    # ------------------------------------------------------------------
    # Sessions and row locks (§7 limitation support)
    # ------------------------------------------------------------------
    def open_session(self, owner):
        """Open a client session; idle cleanup after the session timeout."""
        self._assert_up()
        session = DbSession(self, owner)
        self._sessions[session.session_id] = session
        self.kernel.process(
            self._session_reaper(session), name=f"db-session-{session.session_id}"
        )
        return session

    def _session_reaper(self, session):
        """Close the session when its idle timeout elapses (TCP keepalive)."""
        yield self.kernel.timeout(self.session_idle_timeout)
        session.close()

    def close_sessions_owned_by(self, owners):
        """Immediately close sessions of the given owners.

        Models the OS terminating TCP connections when the JVM process is
        killed: "the resulting termination of the underlying TCP connection
        ... would cause the immediate termination of the DB session and the
        release of the lock" (§7).
        """
        owners = set(owners)
        for session in list(self._sessions.values()):
            if session.owner in owners:
                session.close()

    def _row_lock(self, table, pk):
        key = (table, pk)
        lock = self._locks.get(key)
        if lock is None:
            lock = Lock(self.kernel, name=f"{table}:{pk}")
            self._locks[key] = lock
        return lock

    def row_lock_holder(self, table, pk):
        lock = self._locks.get((table, pk))
        return lock.owner if lock else None

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self):
        """Fail-stop the database process.  Committed rows are on 'disk'
        (they survive); in-flight transactions roll back during recovery."""
        self.running = False
        for session in list(self._sessions.values()):
            session.close()

    def recover(self):
        """Generator: WAL replay.  Charges the recovery time, rolls back
        every transaction that was in flight at the crash."""
        if self.running:
            raise DatabaseError("recover() on a running database")
        yield self.kernel.timeout(self.recovery_time)
        entries = [
            entry for actions in self._undo.values() for entry in actions
        ]
        self._undo.clear()
        for _seq, action in sorted(entries, key=lambda e: -e[0]):
            action()
        self.running = True

    # ------------------------------------------------------------------
    # Audit / repair (manual-operator surface)
    # ------------------------------------------------------------------
    def snapshot(self, table_name):
        """A table's pk → row map as of now, for integrity comparison.

        The row dicts are shared with the table (stored rows are never
        mutated), so later writes do not show in the snapshot.
        """
        return dict(self._table(table_name).rows)

    def diff_table(self, table_name, reference_rows):
        """Primary keys whose rows differ from a reference snapshot."""
        current = self._table(table_name).rows
        differing = []
        for pk in set(current) | set(reference_rows):
            if current.get(pk) != reference_rows.get(pk):
                differing.append(pk)
        return sorted(differing, key=repr)

    def repair_table(self, table_name, reference_rows):
        """Manual repair: reset the table to a reference snapshot.

        Returns the number of rows changed.  This is the operator action
        behind the ``≈`` entries of Table 2.
        """
        table = self._table(table_name)
        changed = len(self.diff_table(table_name, reference_rows))
        table.replace_all(reference_rows)
        return changed

    def _corrupt_row(self, table_name, pk, column, value):
        """Fault-injection surface: silently alter stored data."""
        table = self.tables[table_name]
        if pk not in table.rows:
            raise DatabaseError(f"cannot corrupt missing row {pk!r}")
        table.set_column(pk, column, value)
