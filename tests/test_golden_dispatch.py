"""The golden files below numpy's X86_V4 (AVX-512) dispatch.

``tests/test_golden.py`` runs in a subprocess with numpy's X86_V4 targets
switched off, as on a CPU without AVX-512. It lives apart from that file, or
the subprocess would run this test again.
"""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NO_X86_V4 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _simd(env) -> dict[str, str]:
    """``np.show_runtime()``'s found and not_found SIMD targets, as printed."""
    shown = subprocess.run([sys.executable, "-c", "import numpy; numpy.show_runtime()"],
                           capture_output=True, text=True, env=env, check=True).stdout
    return {key: m.group(1) for key in ("found", "not_found")
            if (m := re.search(rf"'{key}': \[([^\]]*)\]", shown))}


@pytest.mark.xfail(strict=True, raises=subprocess.CalledProcessError,
                   reason="ROADMAP item 13: below X86_V4 one i_vy2_se value of "
                          "compare and of sweep_m1 each moves by 1 ulp")
def test_golden_outputs_hold_without_x86_v4(src_env, tmp_path):
    env = {**src_env, **NO_X86_V4}
    simd = _simd(env)
    if "'X86_V4'" not in "".join(simd.values()):
        pytest.skip("this numpy has no X86_V4 dispatch target")
    assert "'X86_V4'" in simd.get("not_found", ""), simd
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--basetemp", str(tmp_path / "golden"), "tests/test_golden.py"],
                   cwd=ROOT, env=env, capture_output=True, check=True)
