"""The benchmark tracer's hooks resolve against the package.

perfbench/tracing.py patches module attributes and class methods by name
(poly.SymmetricTensor.eval, cones.solve, flow.nnls, ...).  A change that
deletes or renames one of them breaks the traced benchmark, so install
every hook here and put the originals back.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_hooks_install_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = [(owner, attr, original, getattr(owner, attr))
                   for owner, attr, original in tracer._patches]
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original, wrapper in patched:
        assert wrapper is not original
        assert getattr(owner, attr) is original
