"""The contract between the package and the benchmark's tracer, ``bench/tracing.py``.

The tracer imports every module it names as a layer and wraps a fixed set of
entry points by name, so renaming or removing one of them breaks
``bench/run.py --trace 1``.  This runs the two traced entry points the
benchmark calls and checks that each layer on their path is counted.
"""

from pathlib import Path

import foliations.classify as classify_mod

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_every_layer_of_classify_and_determine(
    l112, l1111, distribution_d2, monkeypatch
):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    original = classify_mod.classify
    tracer = Tracer()
    tracer.install()
    try:
        tracer.new_pass(record_spans=False)
        # L112's saturation has a resolution of length 3, so Ext^3 is computed
        report = tracer.entry("classify", "classify")(l112)
        verdict = tracer.entry("determine", "is_determined_by_singular_scheme")(l1111)
        # this singular ideal's resolution has length 4, so saturate runs
        unsaturated = tracer.entry("classify", "classify")(distribution_d2)
        calls = dict(tracer.stats.calls)
    finally:
        tracer.uninstall()
    assert not report.is_curve and report.betti[(3, 6)] == 1
    assert verdict.kind == "non-unique"
    assert not unsaturated.saturated
    for layer in ("classify", "determine", "saturation", "resolutions", "ext", "groebner", "modules"):
        assert calls.get(layer, 0) > 0, layer
    assert classify_mod.classify is original
