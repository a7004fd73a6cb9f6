"""Reader pool hand-off: a queued reader is served before a thread that
releases and re-acquires, and no hand-off leaks a connection slot."""

import threading
import time

from repro.backends.pool import ReaderConnectionPool
from repro.errors import CatalogClosedError


class FakeConnection:
    def rollback(self):
        pass

    def close(self):
        pass


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def test_queued_reader_is_served_before_a_barging_reacquire():
    """K threads hold every connection; one more thread queues.  Each
    holder then releases and re-acquires in a loop, one at a time.  The
    queued thread must get a connection before any holder's second
    acquire returns."""
    k, rounds = 3, 20
    pool = ReaderConnectionPool(FakeConnection, capacity=k)
    log = []
    held = [pool._acquire() for _ in range(k)]
    turn = threading.Lock()

    def queued():
        conn = pool._acquire()
        log.append("queued")
        pool._release(conn)

    def barger(index):
        conn = held[index]
        for _ in range(rounds):
            with turn:
                pool._release(conn)
                conn = pool._acquire()
                log.append(f"barger{index}")
        pool._release(conn)

    waiting = start(queued)
    wait_for(lambda: pool.queue_depth() == 1)
    bargers = [start(lambda i=i: barger(i)) for i in range(k)]
    for thread in [waiting, *bargers]:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert log[0] == "queued", log[:5]
    assert len(log) == 1 + k * rounds
    assert pool.open_connections() == k
    assert pool.queue_depth() == 0


def test_failed_connect_passes_the_slot_to_the_next_waiter():
    """A reader whose connect fails hands its reserved slot to the
    queued reader, which connects in it."""
    unblock = threading.Event()
    calls = []

    def connect():
        calls.append(1)
        if len(calls) == 1:
            unblock.wait(5.0)
            raise OSError("cannot open")
        return FakeConnection()

    pool = ReaderConnectionPool(connect, capacity=1)
    outcomes = []

    def reader():
        try:
            outcomes.append(pool._acquire())
        except OSError as exc:
            outcomes.append(exc)

    first = start(reader)
    wait_for(lambda: len(calls) == 1)
    second = start(reader)
    wait_for(lambda: pool.queue_depth() == 1)
    unblock.set()
    for thread in (first, second):
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert [type(o) for o in outcomes] == [OSError, FakeConnection]
    assert pool.open_connections() == 1


def test_close_wakes_queued_readers():
    pool = ReaderConnectionPool(FakeConnection, capacity=1)
    conn = pool._acquire()
    errors = []

    def queued():
        try:
            pool._acquire()
        except CatalogClosedError as exc:
            errors.append(exc)

    waiter = start(queued)
    wait_for(lambda: pool.queue_depth() == 1)
    pool.close()
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    assert len(errors) == 1
    assert pool.queue_depth() == 0
    pool._release(conn)
    assert pool.open_connections() == 0
