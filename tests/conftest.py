import numpy as np
import pytest

from annulus_harmonics import SamplerConfig, random_series


@pytest.fixture
def tame_series():
    """Factory for random series kept tame on A(1, e^1.5)."""

    def make(seed: int, N: int = 10, decay: float = 0.2):
        return random_series(SamplerConfig(seed=seed, N=N, decay=decay))

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
