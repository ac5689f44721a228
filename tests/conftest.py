import pytest

from chasescape import harness


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the process pool by one that runs each block inline and
    records how it was opened, whether it is inside a ``map`` call and the
    exception it was shut down with; no worker process is spawned."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.blocks = 0
            self.mapping = False
            self.shut_down_with = None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, exc_type, *exc):
            self.shut_down_with = exc_type
            return False

        def map(self, fn, *iterables):
            self.mapping = True
            results = [fn(*args) for args in zip(*iterables)]
            self.mapping = False
            self.blocks += len(results)
            return iter(results)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return pools


@pytest.fixture
def pin_cpu_count(monkeypatch):
    """Call with a count to make the harness see that many usable CPUs for
    the rest of the test, so a test of the pool path covers it on any host.
    None means a platform with no CPU affinity and an unknown CPU count."""

    def pin(count):
        if count is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        else:
            cpus = set(range(count))
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: count)

    return pin
