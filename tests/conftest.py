import os
from pathlib import Path

import numpy as np
import pytest

from blindjam.channel import ChannelRealization, default_budget, sample_channel
from blindjam.schemes import make_blind_scheme


@pytest.fixture
def ch1():
    # one helper, generic gains
    return sample_channel(1, 7)


@pytest.fixture
def ch2():
    return sample_channel(2, 11)


@pytest.fixture
def blind_cfg(ch1):
    budget = default_budget(ch1, 100.0)
    return make_blind_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)


@pytest.fixture
def noiseless_ch():
    return ChannelRealization(h=np.array([1.3, -0.8]), g=np.array([0.9, 1.1]),
                              sigma1=0.0, sigma2=0.0)


@pytest.fixture
def src_env():
    # a subprocess does not inherit pytest's pythonpath: put this checkout's src/ first
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
