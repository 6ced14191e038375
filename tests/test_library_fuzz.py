"""The public callables that take counts, sizes or symbols return, or raise
the package's own ValueError or TypeError, whatever their numeric and array
arguments: each comes from one pool (NaN, the infinities, -1, 0, 2**63,
1e308, empty and short arrays) or is a value the call runs with. Trial
counts come from the pool without 2**63, a count that runs for hours. The
typed arguments (a config, a channel, a mixture, a lattice, a generator,
sweep rows) are valid ones. The inputs in FOUND once ran past a check: each
is refused.

"Its own" means the innermost frame of the traceback is in the package: a
check there, not one of numpy's. The fuzz runs as this file's ``__main__``
in one child process, which limits its own address space to 1 GiB and each
call to CALL_SECONDS by an alarm, and turns every warning into an error. So
an allocation or a loop that no check bounds fails the test, not the
machine.
"""
import math
import resource
import signal
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blindjam
from blindjam.channel import eve_output, legit_output, sample_channel
from blindjam.constellation import enumerate_sum_lattice, min_distance, nearest_index
from blindjam.experiments import SweepRow, fit_slopes, ols
from blindjam.infometrics import MixtureSpec, mixture_entropy, rate_lower_bound, symbol_sum_pmf
from blindjam.receiver import decode, estimate_eve_u_error, estimate_ser, receiver_lattice
from blindjam.schemes import (encode, make_blind_scheme, make_csi_scheme,
                              make_gaussian_jam_scheme, sample_symbols)
from blindjam.streams import substream

PACKAGE = Path(blindjam.__file__).resolve().parent
ADDRESS_SPACE = 2**30
CALL_SECONDS = 2.0
EXAMPLES = 2000

HUGE = 2**63
POOL = [math.nan, math.inf, -math.inf, -1, 0, HUGE, 1e308,
        np.array([]), np.array([math.nan]), np.array([2, -math.inf]),
        np.array([2**63, 0, 1]), np.array([1e308, -1e308, 1])]


def arg(*runs_with):
    """A pool value or a value the call runs with."""
    return st.sampled_from(POOL + list(runs_with))


def trials(*runs_with):
    """A pool value but HUGE, or a trial count the call runs with."""
    return st.sampled_from([x for x in POOL if x is not HUGE] + list(runs_with))


CH = sample_channel(1, 7)
CFG = make_blind_scheme(1, 100.0, 0.1, CH.h, 4.0, 3)
SPEC = MixtureSpec(np.array([-1.0, 0.0, 2.0]), sigma=0.5)
LATTICE = enumerate_sum_lattice([1.0, 0.37], [2, 3])
RECEIVER_LATTICES = [receiver_lattice(CFG, CH, "legit"), receiver_lattice(CFG, CH, "eve")]


def _enumerated_min_distance(coeffs, radii, a):
    return min_distance(enumerate_sum_lattice(coeffs, radii, a))


def _rows(values):
    """A 3-power Blind series whose information estimates are ``values``."""
    return [SweepRow(kind="Blind", m=1, delta=0.05, draw_id=0, p=p, gamma=0.3, i_vy1=v,
                     i_vy1_se=0.0, i_vy2=-v, i_vy2_se=0.0)
            for p, v in zip((1e2, 1e3, 1e4), values)]


ROWS = st.lists(st.sampled_from([0.0, 1.5, -1.0, 1e308, 2.0**63]), min_size=3,
                max_size=3).map(_rows)
METHOD = arg("mc", "quadrature")

# each call: the function and a strategy for each argument
CALLS = {
    "encode": (encode, [st.sampled_from([CFG, make_gaussian_jam_scheme(1, 100.0, 0.1, CH.h,
                                                                       4.0, 3)]),
                        arg(np.array([[1]]), [0]), arg(np.array([[1, -2]]), [0, 0])]),
    "ols": (ols, [arg(np.arange(3.0)), arg(np.array([1.0, 0.5, 4.0]))]),
    "symbol_sum_pmf": (symbol_sum_pmf, [arg(1, 2, 3), arg(1, 2)]),
    "sample_symbols": (sample_symbols, [st.just(CFG), st.builds(substream, st.just(0)),
                                        arg(5)]),
    "mixture_entropy": (mixture_entropy, [st.just(SPEC), METHOD, arg(2, 100), arg(3)]),
    "rate_lower_bound": (rate_lower_bound, [st.just(CFG), st.just(CH), METHOD, arg(100),
                                            arg(3)]),
    "make_blind_scheme": (make_blind_scheme, [arg(1, 2), arg(100.0), arg(0.1),
                                              arg(np.array([1.0, -0.5])), arg(4.0), arg(3)]),
    "nearest_index": (nearest_index, [st.just(LATTICE), arg(np.array([0.3, -2.0]))]),
    "fit_slopes": (fit_slopes, [ROWS, arg("bound", "i_vy2", "kind", "trials"), arg(1)]),
    "estimate_ser": (estimate_ser, [st.just(CFG), st.just(CH), trials(2000), arg(3),
                                    arg(None, 10)]),
    "estimate_eve_u_error": (estimate_eve_u_error, [st.just(CFG), st.just(CH), trials(2000),
                                                    arg(3), arg(None, 10)]),
    "decode": (decode, [st.just(CFG), st.just(CH), arg("legit", "eve"),
                        st.sampled_from(RECEIVER_LATTICES), arg(np.array([0.3, -2.0])),
                        arg(np.array([[1], [-1]]), None)]),
    "enumerate_sum_lattice": (_enumerated_min_distance, [arg(np.array([1.0, 0.37])),
                                                         arg([2, 3], [1, 0, 2]), arg(0.5)]),
    "make_csi_scheme": (make_csi_scheme, [arg(100.0), arg(0.1), arg(np.array([1.0, -0.5])),
                                          arg(np.array([0.8, 1.2]))]),
    "sample_channel": (sample_channel, [arg(1, 2), arg(3)]),
    "legit_output": (legit_output, [st.just(CH), arg(np.array([[1.0, -2.0]]))]),
    "eve_output": (eve_output, [st.just(CH), arg(np.array([[1.0, -2.0]]))]),
}

# inputs that once hung, truncated, warned or failed in numpy: each is refused
FOUND = {
    "infinite-trials": ("estimate_eve_u_error", (CFG, CH, math.inf, 0, None)),
    "nan-min_errors": ("estimate_ser", (CFG, CH, 2000, 0, math.nan)),
    "negative-min_errors": ("estimate_ser", (CFG, CH, 2000, 0, -1)),
    "infinite-coefficient": ("enumerate_sum_lattice", ([2, -math.inf], [1, 1], 1.0)),
    "2-D-coefficients": ("enumerate_sum_lattice", ([[1.0]], [1], 1.0)),
    "no-coefficients": ("enumerate_sum_lattice", ([], [], 1.0)),
    "infinite-radius": ("enumerate_sum_lattice", ([1.0], [-math.inf], 1.0)),
    "fractional-radius": ("enumerate_sum_lattice", ([1.0, 0.37], [2.7, 1], 1.0)),
    "nan-spacing": ("enumerate_sum_lattice", ([1.0, 0.37], [2, 1], math.nan)),
    "infinite-csi-gains": ("make_csi_scheme",
                           (math.nan, math.nan, [2, -math.inf], [2, -math.inf])),
    "0-d-legit-input": ("legit_output", (CH, 1.0)),
    "0-d-eve-input": ("eve_output", (CH, 1.0)),
    "nan-m": ("sample_channel", (math.nan, 3)),
    "huge-known-message": ("decode", (CFG, CH, "eve", RECEIVER_LATTICES[1], np.zeros(1),
                                      np.array([[1e308]]))),
    "fractional-known-message": ("decode", (CFG, CH, "eve", RECEIVER_LATTICES[1], np.zeros(1),
                                            np.array([[0.5]]))),
    "nan-known-message": ("decode", (CFG, CH, "eve", RECEIVER_LATTICES[1], np.zeros(1),
                                     np.array([[math.nan]]))),
    "overflowing-legit-sum": ("legit_output", (CH, [1e308, 1e308])),
    "overflowing-eve-sum": ("eve_output", (CH, [1e308, 1e308])),
}


class Overtime(Exception):
    """A call ran past CALL_SECONDS."""


def _overtime(signum, frame):
    raise Overtime(f"a call ran past {CALL_SECONDS} s")


def _returns_or_refuses(name, args) -> bool:
    """Whether the call refused its arguments, with its own ValueError or
    TypeError; any other exception, and a call past CALL_SECONDS, fails."""
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        CALLS[name][0](*args)
    except (ValueError, TypeError) as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        assert Path(where.filename).resolve().parent == PACKAGE, (
            f"{name}{tuple(args)!r} raised {type(exc).__name__} in "
            f"{where.filename}:{where.lineno}: {exc}")
        return True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return False


@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(data=st.data())
def fuzz(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    args = [data.draw(strategy, label=f"argument {i}")
            for i, strategy in enumerate(CALLS[name][1])]
    _returns_or_refuses(name, args)


def test_every_fuzzed_call_returns_or_refuses(src_env, tmp_path):
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         timeout=120, cwd=tmp_path,
                         env={**src_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("name, args", FOUND.values(), ids=list(FOUND))
def test_found_input_is_refused(name, args):
    handler = signal.signal(signal.SIGALRM, _overtime)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _returns_or_refuses(name, args), f"{name}{args!r} returned"
    finally:
        signal.signal(signal.SIGALRM, handler)


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _overtime)
    warnings.simplefilter("error")
    fuzz()
