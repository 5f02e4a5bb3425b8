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


def test_traced_hierarchy_counts_rows_cells_and_lps():
    # the hooks unpack assemble_lp's result and arguments, run_hierarchy's
    # outcome and each LP result: a traced run on a small cone must count
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from lyapcert import cop_lp
    from lyapcert.cones import PolyhedralCone
    from lyapcert.poly import parse_polynomial
    system = cop_lp.ConicSystem(
        [parse_polynomial("-1*x1 - 2*x2", 2),
         parse_polynomial("-1*x1 - 1*x2", 2)],
        PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]]))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        outcome = cop_lp.run_hierarchy(system, [(2, 0, 6)])
    finally:
        tracer.restore()
    assert outcome.found
    for name in ("cop_lp.rows_assembled", "cones.cells_final",
                 "linprog.calls"):
        assert tracer.counts[name] > 0, name


def test_traced_dsos_solve_times_the_sos_assembly():
    # the tracer wraps assemble_condition_i/ii/iii as module globals of
    # sos_cert: an assembly that stops calling them through the module
    # leaves the sos_cert.assemble span empty
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from lyapcert import sos_cert
    from lyapcert.poly import parse_polynomial
    from lyapcert.tangency import SemialgebraicSet
    system = sos_cert.SemialgebraicSystem(
        [parse_polynomial("-1*x1^2", 2), parse_polynomial("0", 2)],
        SemialgebraicSet([parse_polynomial("x1 - x2^2", 2),
                          parse_polynomial("1 - x1", 2)],
                         [(-0.5, 1.5), (-1.5, 1.5)]))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        outcome = sos_cert.solve_certificate(system, 2, tier="dsos")
    finally:
        tracer.restore()
    assert outcome.status == "certificate"
    total, _ = tracer.totals()
    assert total["sos_cert.assemble"] > 0
