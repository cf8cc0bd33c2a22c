import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _start_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        _start_ray()
    yield
    ray.shutdown()


@pytest.fixture
def no_ray_session():
    """No Ray session runs in this process during the test, because a
    child's ``ray.init(address="auto")`` would attach to it.  A session
    that was up starts again afterwards with the same settings, and the
    query cache of ``__ray_entry__`` (datasets of the old session) is
    emptied."""
    import ray

    was_up = ray.is_initialized()
    ray.shutdown()
    yield
    entry = sys.modules.get("__ray_entry__")
    if entry is not None:
        entry._SHARED_CACHE.clear()
    if was_up:
        _start_ray()
