"""The benchmark's tracer still finds every method and function it wraps.

``perfbench/spans.py`` wraps methods through the class's own ``__dict__``,
so a method moved into a base class breaks a ``--trace 1`` run. Installing
and uninstalling the spans here makes that a failure of this suite, and
checks that every patched attribute is restored afterwards.
"""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_install_and_uninstall_restore_every_attribute(spans):
    tracer, patches = spans.Tracer(), []
    try:
        spans.install_repro_spans(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert vars(owner)[attr].__wrapped__ is orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert vars(owner)[attr] is orig, (owner, attr)
    assert not tracer._patches
