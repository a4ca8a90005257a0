"""Shared fixtures."""

import threading

import pytest

from rmab_dfl import dec_layer, mdp


@pytest.fixture
def pool_size(monkeypatch):
    """use(workers): patch mdp.WORKERS to `workers`, with a fresh pool made
    at the next fan-out. A pool made under the patch is shut down at the
    next use and at teardown, when the pool from before the test returns;
    its threads end once idle, so a test that deadlocks it still reports."""
    before = mdp._pool

    def release():
        if mdp._pool not in (None, before):
            mdp._pool.shutdown(wait=False, cancel_futures=True)

    def use(workers):
        release()
        monkeypatch.setattr(mdp, "_pool", None)
        monkeypatch.setattr(mdp, "WORKERS", workers)

    yield use
    release()


@pytest.fixture
def arm_threads(monkeypatch, pool_size):
    """split(workers, states): run per-arm work on `workers` threads, split
    wherever every block keeps 2 arms, and cut the engine's solve of
    `states`-state arms into chunks of 3 arms, so that 7 arms make blocks
    of 3, 2 and 2. It returns the set of names of the arm-block threads
    that have run an engine chunk or a centring since."""
    names = set()
    for module, name in ((mdp, "_factor_in_place"), (dec_layer, "_centered")):

        def spy(*args, real=getattr(module, name), **kwargs):
            thread = threading.current_thread().name
            if thread.startswith("rmab-dfl-arms"):
                names.add(thread)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    def split(workers, states):
        pool_size(workers)
        monkeypatch.setattr(mdp, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(mdp, "_CHUNK_ENTRIES", 3 * states * states * 2**states)
        names.clear()
        return names

    return split
