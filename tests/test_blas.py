"""OpenBLAS's thread settings: the idle-worker timeout that importing tclsv
sets, and the one-thread scope, which finds the OpenBLAS numpy loaded, sets one
thread inside the scope and restores the caller's count however the scope ends.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tclsv
from tclsv import blas

# Run in a fresh interpreter: OpenBLAS reads its timeout when numpy loads it.
IDLE_CPU_SCRIPT = """
import json, os, time
import tclsv
import numpy as np
from tclsv import blas
found = blas.controls()
a = np.ones((512, 512))
a @ a  # the workers are up
time.sleep(0.3)
start = time.process_time()
a @ a
time.sleep(0.3)
print(json.dumps({"threads": found[0]() if found else 0, "cpu_s": time.process_time() - start,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def idle_cpu_after_a_product(**env):
    """Thread count, process CPU seconds over one 512x512 product and 0.3 s of sleep, and the timeout."""
    src = str(Path(tclsv.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    child_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", IDLE_CPU_SCRIPT], env=child_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout)
    if found["threads"] < 2:
        pytest.skip(f"numpy's OpenBLAS runs {found['threads']} thread(s) here (0: no controls found)")
    return found


def test_idle_workers_sleep_between_products():
    found = idle_cpu_after_a_product()
    # at OpenBLAS's default timeout an idle worker spins for about 0.13 s
    assert found["cpu_s"] < 0.05
    assert found["timeout"] == str(blas.THREAD_TIMEOUT)


def test_a_thread_timeout_set_beforehand_is_left_as_set():
    assert idle_cpu_after_a_product(OPENBLAS_THREAD_TIMEOUT="28")["timeout"] == "28"


@pytest.fixture()
def controls():
    found = blas.controls()
    if found is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    return found


def test_finds_the_thread_controls_of_numpys_openblas():
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name:
        pytest.skip(f"numpy is built against {name}")
    assert blas.controls() is not None


def test_single_thread_sets_one_thread_and_restores_the_count(controls):
    get, set_ = controls
    previous = get()
    set_(2)
    try:
        with blas.single_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError), blas.single_thread():
            raise RuntimeError("inside the scope")
        assert get() == 2
    finally:
        set_(previous)


def test_without_controls_the_scope_does_nothing_and_says_so(monkeypatch, caplog):
    monkeypatch.setattr(blas, "_SYMBOLS", (("no_such_get_threads", "no_such_set_threads"),))
    blas.controls.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="tclsv.blas"):
            assert blas.controls() is None
            with blas.single_thread():
                pass
    finally:
        blas.controls.cache_clear()
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "no OpenBLAS thread controls" in caplog.text
