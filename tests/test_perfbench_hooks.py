"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
program functions by name from outside.  Installing and removing every
wrapper here makes a rename that would break the traced run fail the
test suite, not only the benchmark."""
from __future__ import annotations

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_layers_install_and_close(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from tracer import Tracer

    import repro.core.switcher as switcher

    choose = switcher.KnobSwitcher.choose
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert switcher.KnobSwitcher.choose is not choose
    finally:
        tracer.close()
    assert switcher.KnobSwitcher.choose is choose
