"""Shared fixtures: tiny synthetic repositories and prepared databases.

Repository builds are session-scoped (deterministic, so safe to share);
databases are function-scoped unless the test only reads.
"""

from __future__ import annotations

import time

import pytest

from repro.core.loading import prepare
from repro.data import SCALE_TEST, build_or_reuse
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.physical import CancelToken
from repro.util.lock_sanitizer import recorded_violations, reset_violations

MILLIS_PER_DAY = 24 * 3600 * 1000


@pytest.fixture(autouse=True)
def no_sanitizer_violations():
    """Fail a test whose run raised a sanitizer violation, even if caught.

    Under ``REPRO_LOCK_SANITIZER=1`` a broad ``except`` in the engine could
    otherwise turn a violation into an ordinary error result.  Tests that
    provoke violations on purpose reset the record themselves.
    """
    reset_violations()
    yield
    violations = recorded_violations()
    if violations:
        pytest.fail("sanitizer violations:\n" + "\n".join(violations))


@pytest.fixture(scope="session")
def repo_base(tmp_path_factory):
    return str(tmp_path_factory.mktemp("repos"))


@pytest.fixture(scope="session")
def tiny_repo(repo_base):
    """sf-1 test-scale repository: 8 files (4 stations x 2 days)."""
    repository, stats = build_or_reuse(repo_base, 1, SCALE_TEST)
    return repository, stats


@pytest.fixture(scope="session")
def tiny_fiam_repo(repo_base):
    """FIAM-only test-scale repository (for selectivity workloads)."""
    repository, stats = build_or_reuse(repo_base, 1, SCALE_TEST, fiam_only=True)
    return repository, stats


@pytest.fixture()
def lazy_db(tiny_repo):
    db, report = prepare("lazy", tiny_repo[0])
    yield db
    db.close()


@pytest.fixture()
def eager_db(tiny_repo):
    db, report = prepare("eager_plain", tiny_repo[0])
    yield db
    db.close()


@pytest.fixture()
def eager_index_db(tiny_repo):
    db, report = prepare("eager_index", tiny_repo[0])
    yield db
    db.close()


@pytest.fixture()
def eager_dmd_db(tiny_repo):
    db, report = prepare("eager_dmd", tiny_repo[0])
    yield db
    db.close()


class ParkingToken(CancelToken):
    """A cancel token that tells when its query waits on another's scan.

    A query waiting for an identical in-flight scan polls its token every
    50 ms (``Database.scan_once``); stage one polls back to back, and a
    query blocked in its own chunk fetch does not poll at all.
    """

    def __init__(self) -> None:
        super().__init__()
        self.polls: list[float] = []

    def raise_if_cancelled(self) -> None:
        self.polls.append(time.monotonic())
        super().raise_if_cancelled()

    def wait_until_parked(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            last = self.polls[-2:]
            if len(last) == 2 and last[1] - last[0] >= 0.04:
                return
            time.sleep(0.005)
        raise AssertionError("query never waited on an in-flight scan")


@pytest.fixture()
def parking_token():
    return ParkingToken()


@pytest.fixture()
def day_range():
    """The first full day of the synthetic datasets."""
    return EPOCH_2010_MS, EPOCH_2010_MS + MILLIS_PER_DAY


@pytest.fixture()
def two_day_range():
    return EPOCH_2010_MS, EPOCH_2010_MS + 2 * MILLIS_PER_DAY
