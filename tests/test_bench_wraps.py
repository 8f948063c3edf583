"""The benchmark's traced run wraps sigsurv functions by name
(`bench/layers.py`). A name it lists that the library no longer has
would fail only a traced bench run; this keeps the list checked with
the unit tests."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as is
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    tr = Tracer()
    try:
        layers.instrument(tr)
        patches = list(tr._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tr.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
