import functools

import numpy as np
import pytest

from rnaloop import autodiff
from rnaloop.errors import ContractError


@pytest.fixture(autouse=True, scope="session")
def _finite_checks():
    # every op's output goes through autodiff._record; the package checks
    # none of them, so the suite checks that every op of every test gives
    # finite values, and keeps the original as _record.__wrapped__
    record = autodiff._record

    @functools.wraps(record)
    def checked(out, parents, backward_fn, opname):
        if not np.all(np.isfinite(out)):
            raise ContractError(f"{opname} produced non-finite values")
        return record(out, parents, backward_fn, opname)

    autodiff._record = checked
    yield
    autodiff._record = record


@pytest.fixture
def unchecked_ops(monkeypatch):
    """The package's own ``_record``, with no finite check, for one test."""
    monkeypatch.setattr(autodiff, "_record", autodiff._record.__wrapped__)
