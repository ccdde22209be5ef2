from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from oscfree import OscillatorParams, analysis


@pytest.fixture
def params() -> OscillatorParams:
    return OscillatorParams(mass=1.0, omega=1.0)


@pytest.fixture
def slab_workers(request) -> int:
    """Evaluate slabs on a pool of request.param workers (parametrize with indirect=True)."""
    workers = request.param
    with ThreadPoolExecutor(workers) as pool:
        with mock.patch.object(analysis, "_slab_pool", lambda: (pool, workers)):
            yield workers
