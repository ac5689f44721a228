import pytest

from chasescape import harness


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the process pool by one that runs each block inline and
    records how it was opened; no worker process is spawned."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.blocks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            results = [fn(*args) for args in zip(*iterables)]
            self.blocks += len(results)
            return iter(results)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return pools
