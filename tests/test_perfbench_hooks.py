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


def test_one_probe_span_per_probe_matrix_call(spans, small_indexes, small_data):
    """A flat USP inherits the hierarchy's wrapped ``probe_matrix``, so its
    own must not chain to it: one call records one ``core.probe`` span."""
    tracer, q = spans.Tracer(), small_data[1][:3]
    try:
        spans.install_repro_spans(tracer)
        for name in ("usp", "hierarchy"):
            tracer.spans.clear()
            small_indexes[name].probe_matrix(q)
            assert [s[0] for s in tracer.spans].count("core.probe") == 1, name
    finally:
        tracer.uninstall()
