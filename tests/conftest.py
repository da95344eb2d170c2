"""Shared fixtures: synthetic images and compiled programs (small scales).

Session-scoped where construction is expensive; every test that mutates a
program gets its own instance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import (
    hand_phantom,
    lung_phantom,
    noise_texture,
    portrait_phantom,
    vector_field_2d,
)

# tier-1 runs the same examples on every machine, with or without a local
# .hypothesis/ directory; exploration belongs to CI's `verify fuzz` jobs,
# which print their seeds
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def hand32():
    return hand_phantom(32)


@pytest.fixture(scope="session")
def lung32():
    return lung_phantom(32)


@pytest.fixture(scope="session")
def vectors32():
    return vector_field_2d(32)


@pytest.fixture(scope="session")
def noise32():
    return noise_texture(32)


@pytest.fixture(scope="session")
def portrait64():
    return portrait_phantom(64)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def bound_kernels(monkeypatch):
    """``(NativeUpdate, recorder)`` for every native kernel this process
    binds while the fixture is live, in binding order."""
    from repro.runtime.native import NativeUpdate

    seen = []
    init = NativeUpdate.__init__

    def spy(self, *args, recorder=None, **kwargs):
        init(self, *args, recorder=recorder, **kwargs)
        seen.append((self, recorder))

    monkeypatch.setattr(NativeUpdate, "__init__", spy)
    return seen
