"""Unit tests that run a ``verify`` check at their own seed and sample count."""

import numpy as np

from quniverse import verification


def shared_check(name: str, seed: int, n: int):
    """A test running check ``name`` with ``n`` samples from ``default_rng(seed)``
    that holds each case to its ``verify`` tolerance."""
    def test():
        for label, error, tol in verification.run_check(name, np.random.default_rng(seed), n):
            assert error < tol, f"{label}: error {error!r}, tolerance {tol!r}"
    return test
