"""The one-thread BLAS scope: it finds the OpenBLAS numpy loaded, sets one
thread inside the scope and restores the caller's count however the scope ends.
"""

import logging

import numpy as np
import pytest

from tclsv import blas


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
