import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from lyapcert import (cli, cones, flow, linprog, oracle, sdpsolve, sos_cert,
                      tangency)
from lyapcert.cli import (_OPTION_KEYS, EXIT_NOT_FOUND, EXIT_OK,
                          EXIT_SOLVER_FAILURE, EXIT_USAGE, SpecFileError,
                          build_parser, default_cone_schedule, main,
                          parse_spec, read_certificate_candidate)
from lyapcert.cones import section_table
from lyapcert.cop_lp import ConicSystem
from lyapcert.errors import NumericalError
from lyapcert.sos_cert import SemialgebraicSystem

CONE_SPEC = """\
dim: 2
f1: -1*x1 - 2*x2
f2: -1*x1 - 1*x2
cone1: -0.25*x1 + 1*x2
cone2: 1*x1 - 0.25*x2
schedule: 2 0 6
x0: 2.0 0.5
T: 20
dt: 1e-3
"""

CUSP_SPEC = """\
dim: 2
f1: -1*x1^2
f2: 0
g1: x1 - x2^2
g2: 1 - x1
box1: -0.5 1.5
box2: -1.5 1.5
deg: 2
"""


@pytest.fixture
def cone_spec(tmp_path):
    path = tmp_path / "cone.spec"
    path.write_text(CONE_SPEC)
    return path


SQ3D_SPEC = Path(__file__).resolve().parents[1] / "specs" / "sq3d.spec"


@pytest.fixture(scope="module")
def sq3d_run(tmp_path_factory):
    """find-lyap-cone on the bundled square-cone spec: exit code, certificate."""
    out = tmp_path_factory.mktemp("sq3d")
    code = main(["find-lyap-cone", str(SQ3D_SPEC), "--out", str(out)])
    return code, (out / "certificate.txt").read_text()


@pytest.fixture
def sq3d_spec():
    return SQ3D_SPEC


@pytest.fixture
def cusp_spec(tmp_path):
    path = tmp_path / "cusp.spec"
    path.write_text(CUSP_SPEC)
    return path


# -- spec parsing ------------------------------------------------------------------

def test_parse_cone_spec(cone_spec):
    spec = parse_spec(cone_spec)
    assert isinstance(spec.system, ConicSystem)
    assert spec.system.cone.C.shape == (2, 2)
    assert np.allclose(spec.system.cone.C, [[-0.25, 1.0], [1.0, -0.25]])
    assert spec.options["schedule"] == [(2, 0, 6)]


def test_parse_semialgebraic_spec(cusp_spec):
    spec = parse_spec(cusp_spec)
    assert isinstance(spec.system, SemialgebraicSystem)
    assert len(spec.system.S.generators) == 2
    assert spec.system.S.box == [(-0.5, 1.5), (-1.5, 1.5)]


def test_reject_nonzero_at_origin(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("dim: 2\nf1: x1 + 1\nf2: 0\ncone1: 1*x1\ncone2: 1*x2\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec(path)
    assert err.value.rule == "f-at-origin"


def test_reject_inhomogeneous_cone_field(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("dim: 2\nf1: x1^2 + x1\nf2: 0\ncone1: 1*x1\ncone2: 1*x2\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec(path)
    assert err.value.rule == "cone-homogeneity"


def test_reject_out_of_dimension_variable(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("dim: 2\nf1: x3\nf2: 0\ncone1: 1*x1\ncone2: 1*x2\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec(path)
    assert err.value.rule == "polynomial"
    assert err.value.line == 2


def test_reject_mixed_constraint_blocks(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("dim: 2\nf1: -1*x1\nf2: -1*x2\ncone1: 1*x1\ng1: 1 - x1\n"
                    "box1: -1 1\nbox2: -1 1\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec(path)
    assert err.value.rule == "constraint-block"


def test_default_schedule_shape():
    schedule = default_cone_schedule()
    assert (2, 0, 8) in schedule and (6, 2, 8) in schedule
    degrees = {d for d, _, _ in schedule}
    assert degrees == {2, 4, 6}


# -- command exit codes ---------------------------------------------------------------

def test_find_lyap_cone_end_to_end(cone_spec, tmp_path):
    out = tmp_path / "out"
    code = main(["find-lyap-cone", str(cone_spec), "--out", str(out)])
    assert code == EXIT_OK
    cert_text = (out / "certificate.txt").read_text()
    assert cert_text.startswith("kind: conic-lyapunov-certificate")
    assert "oracle-pass: true" in cert_text
    # round-trip: the emitted certificate re-verifies
    code2 = main(["verify", str(cone_spec),
                  "--certificate", str(out / "certificate.txt"),
                  "--out", str(tmp_path / "v")])
    assert code2 == EXIT_OK


# a linear field on the square cone that certifies at d = 2, r = 0 after
# one refinement sweep
REFINE_SPEC = """\
dim: 3
f1: -1.5*x1 + 2.5*x2
f2: -1.5*x1 - 1.2*x2 - 0.8*x3
f3: 0.2*x1 - 0.3*x2
cone1: 1*x1 + 0.5*x3
cone2: -1*x1 + 0.5*x3
cone3: 1*x2 + 0.5*x3
cone4: -1*x2 + 0.5*x3
"""


def test_r0_margin_lps_are_pinned(tmp_path):
    """The first 16 hex digits of sha256 of each --dump-lp file of a
    d = 2, r = 0 find, recorded when the lattice values came from the
    monomial table (multiplies only, no pow); the refined sweep's again
    when bisection became exact, each vertex the rounded exact midpoint."""
    spec = tmp_path / "refine.spec"
    spec.write_text(REFINE_SPEC)
    out = tmp_path / "out"
    code = main(["find-lyap-cone", str(spec), "--deg", "2", "--r", "0",
                 "--sweeps", "4", "--dump-lp", "--out", str(out)])
    assert code == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
               for path in sorted(out.glob("*.lp"))}
    assert digests == {"lp-d2-r0-s0.lp": "fed7f92db91fe73c",
                       "lp-d2-r0-s1.lp": "2874990ffd2b7941"}


def test_section_geometry_is_built_once_per_cone(tmp_path, monkeypatch):
    """After find-lyap-cone has built the LP's sections, its oracle gate, a
    later verify of the certificate and a partition-dump of the same spec
    read the cached cells: none of them takes an exact echelon form."""
    spec = tmp_path / "refine.spec"
    spec.write_text(REFINE_SPEC)
    calls = []
    echelon = cones._echelon
    monkeypatch.setattr(cones, "_echelon",
                        lambda rows: calls.append(rows) or echelon(rows))
    gates = []
    verify_conic = oracle.verify_conic

    def counted(*args, **kwargs):
        before = len(calls)
        report = verify_conic(*args, **kwargs)
        gates.append(len(calls) - before)
        return report

    monkeypatch.setattr(oracle, "verify_conic", counted)
    out = tmp_path / "out"
    assert main(["find-lyap-cone", str(spec), "--deg", "2", "--r", "0",
                 "--sweeps", "4", "--out", str(out)]) == EXIT_OK
    built = len(calls)
    assert main(["verify", str(spec), "--certificate",
                 str(out / "certificate.txt"),
                 "--out", str(tmp_path / "v")]) == EXIT_OK
    assert main(["partition-dump", str(spec), "--sweeps", "1"]) == EXIT_OK
    assert gates == [0, 0]
    assert len(calls) == built


def test_find_lyap_cone_on_square_cone_spec(sq3d_run):
    # the spec's schedule is "4 1 0": degree 4, r = 1, no refinement sweep
    code, cert_text = sq3d_run
    assert code == EXIT_OK
    assert "sweeps: 0\n" in cert_text
    assert "lp-rows: 428\n" in cert_text
    assert "oracle-pass: true" in cert_text


def test_corner_flags_print_plain_floats(sq3d_run):
    # plain floats, and no corner-flag lines: the single-face rows that the
    # LP imposes where two faces meet do not make corners safe
    _, cert_text = sq3d_run
    assert "np.float64(" not in cert_text
    assert "corner-flag:" not in cert_text


def test_find_lyap_sos_end_to_end(cusp_spec, tmp_path):
    out = tmp_path / "out"
    code = main(["find-lyap-sos", str(cusp_spec), "--deg", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    cert_text = (out / "certificate.txt").read_text()
    assert cert_text.startswith("kind: sos-lyapunov-certificate")
    assert "tier: sdp" in cert_text
    code2 = main(["verify", str(cusp_spec),
                  "--certificate", str(out / "certificate.txt"),
                  "--out", str(tmp_path / "v")])
    assert code2 == EXIT_OK


@pytest.mark.parametrize("deg, seed", [(2, 1290332350), (6, 949297729)])
def test_cusp_box_sdp_certificates_pass_the_seeds_that_once_rejected_them(
        deg, seed, tmp_path, capsys):
    # with the forced Gram monomials kept, V had a linear term of about
    # -1.4e-7*x1 and the oracle found V rising near the origin at these
    # seeds
    spec = Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
    assert main(["find-lyap-sos", str(spec), "--deg", str(deg), "--tier",
                 "sdp", "--samples", "5000", "--seed", str(seed),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"status=certificate-found degree={deg} tier=sdp")


def _oracle_rejecting(monkeypatch, reject):
    """Wrap oracle.verify_sos so that its report fails on the calls for
    which reject(call index) is true."""
    real, calls = oracle.verify_sos, []

    def verify_sos(V, system, **kwargs):
        report = real(V, system, **kwargs)
        if reject(len(calls)):
            report.checks.append(oracle.CheckResult("forced", -1.0, None, 1))
        calls.append(V)
        return report

    monkeypatch.setattr(oracle, "verify_sos", verify_sos)


def test_oracle_rejection_goes_on_to_the_next_degree(tmp_path, monkeypatch,
                                                     capsys):
    # without "deg:" the search runs degrees 2, 4, 6; the oracle rejects
    # the degree-2 candidate, which is kept apart from certificate.txt
    spec = tmp_path / "cusp.spec"
    spec.write_text(CUSP_SPEC.replace("deg: 2\n", ""))
    _oracle_rejecting(monkeypatch, lambda call: call == 0)
    out = tmp_path / "out"
    assert main(["find-lyap-sos", str(spec), "--samples", "1000",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=certificate-found degree=4 ")
    assert "oracle-pass: false" in (out / "rejected-deg2.txt").read_text()
    assert "oracle-pass: true" in (out / "certificate.txt").read_text()


def test_rejection_at_every_degree_writes_no_certificate(tmp_path,
                                                         monkeypatch, capsys):
    spec = tmp_path / "cusp.spec"
    spec.write_text(CUSP_SPEC.replace("deg: 2\n", ""))
    _oracle_rejecting(monkeypatch, lambda call: True)
    out = tmp_path / "out"
    assert main(["find-lyap-sos", str(spec), "--samples", "1000",
                 "--out", str(out)]) == EXIT_NOT_FOUND
    assert capsys.readouterr().err.splitlines()[-1] == (
        "status=certificate-rejected-by-oracle degrees=[2, 4, 6] tier=sdp "
        "worst=-1.0")
    assert sorted(p.name for p in out.iterdir()) == [
        "rejected-deg2.txt", "rejected-deg4.txt", "rejected-deg6.txt"]


def test_cone_oracle_rejection_writes_no_certificate(cone_spec, tmp_path,
                                                     monkeypatch, capsys):
    # the candidate the grid oracle rejects is kept apart, so no
    # certificate.txt exists for verify --certificate to pass
    real = oracle.verify_conic

    def verify_conic(candidate, system, **kwargs):
        report = real(candidate, system, **kwargs)
        report.checks.append(oracle.CheckResult("forced", -1.0, None, 1))
        return report

    monkeypatch.setattr(oracle, "verify_conic", verify_conic)
    out = tmp_path / "out"
    assert main(["find-lyap-cone", str(cone_spec), "--deg", "2", "--r", "0",
                 "--out", str(out)]) == EXIT_NOT_FOUND
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=certificate-rejected-by-oracle margin=")
    assert status.endswith(" worst=-1.0")
    assert sorted(p.name for p in out.iterdir()) == ["rejected-d2-r0.txt"]
    assert "oracle-pass: false" in (out / "rejected-d2-r0.txt").read_text()


def test_r_without_deg_is_an_input_error(cone_spec, tmp_path, capsys):
    # --r sets a single level together with --deg; alone it would be
    # ignored in favour of the spec's schedule
    assert main(["find-lyap-cone", str(cone_spec), "--r", "7",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=input-error")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec_name, command", [
    ("cusp_spec", ["simulate", "--x0=0.49,0.7", "--T", "0.01",
                   "--candidate", "1*x1^2 + 1*x2^2"]),
    ("cusp_spec", ["simulate", "--x0=0.49,0.7", "--T", "0.01"]),
    ("cone_spec", ["simulate", "--T", "0.01"]),
    ("cusp_spec", ["verify", "--candidate", "1*x1^2 + 1*x2^2"]),
    ("sq3d_spec", ["verify", "--certificate", "{cert}"]),
], ids=["simulate-set", "simulate-set-no-candidate",
        "simulate-cone-no-candidate", "verify-set", "verify-certificate"])
def test_r_that_nothing_reads_is_an_input_error(spec_name, command, request,
                                                sq3d_run, tmp_path, capsys):
    # --r is the denominator power of a cone --candidate; a set's V and a
    # certificate's recorded r take no other
    spec = request.getfixturevalue(spec_name)
    cert = tmp_path / "certificate.txt"
    cert.write_text(sq3d_run[1])
    argv = [command[0], str(spec)] + [a.replace("{cert}", str(cert))
                                      for a in command[1:]]
    assert main(argv + ["--r", "1", "--out", str(tmp_path / "o")]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=input-error")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("found_on, spec_name, detail", [
    ("cone_spec", "cusp_spec", "is a conic-lyapunov-certificate, the spec "
                               "needs a sos-lyapunov-certificate"),
    ("cone_spec", "sq3d_spec", "has dimension 2, the spec 3"),
    ("sq3d_spec", "cone_spec", "has dimension 3, the spec 2"),
], ids=["cone-on-set", "2d-on-3d", "3d-on-2d"])
def test_verify_rejects_a_certificate_of_another_kind_or_dimension(
        found_on, spec_name, detail, request, tmp_path, capsys):
    # a set spec's oracle would read the cone's h as V, and a 2-D h parses
    # as a polynomial in three variables
    assert main(["find-lyap-cone", str(request.getfixturevalue(found_on)),
                 "--out", str(tmp_path / "c")]) == EXIT_OK
    assert main(["verify", str(request.getfixturevalue(spec_name)),
                 "--certificate", str(tmp_path / "c" / "certificate.txt"),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=input-error")
    assert detail in status
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec_name, old, new, command, detail", [
    ("cusp_spec", "", "", ["verify", "--candidate=1e400*x1^2"],
     "coefficient has no finite float value (column 1)"),
    ("cone_spec", "f1: -1*x1", "f1: -1e400*x1", ["find-lyap-cone"],
     "f1: coefficient has no finite float value (column 2) (line 2) "
     "[rule: polynomial]"),
    ("cusp_spec", "box1: -0.5 1.5", "box1: -0.5 1e400",
     ["verify", "--candidate=x1^2 + x2^2"],
     "box1 needs finite bounds (line 6) [rule: box]"),
], ids=["candidate", "field", "box"])
def test_numbers_past_the_float_range_are_input_errors(
        spec_name, old, new, command, detail, request, tmp_path, capsys):
    # each crashed with an OverflowError, and exit 1, the "not found" code
    spec = request.getfixturevalue(spec_name)
    spec.write_text(spec.read_text().replace(old, new))
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"status=input-error detail='{detail}'"


LONG = "1" * 5000
OUT_OF_RANGE = ("number out of range: exponent beyond +-9999 or too many "
                "digits")


@pytest.mark.parametrize("text, column", [
    ("1e999999999*x1^2", 1), ("2*x1^2 - 1e-999999999*x2^2", 10),
    ("0.e0008233221209645312*x1", 1), (f"{LONG}*x1^2", 1),
    (f"1.{LONG}*x1^2", 1), (f"x{LONG}", 1), (f"x1^{LONG}", 4),
    (f"{LONG}/3*x1^2", 1), (f"3/{LONG}*x1^2", 1),
    # one past each bound, leading zeros counted as int() counts them
    ("x1 + 1e10000*x2", 6), ("x1 - 1e-010000", 6),
    ("1" * 4301 + "*x1", 1), ("0." + "0" * 4300 + "1", 1),
    ("x" + "0" * 4300 + "1", 1), ("x1^" + "0" * 4300 + "2", 4),
], ids=["exponent", "negative-exponent", "fuzzed-exponent", "digits",
        "fraction-digits", "variable", "power", "numerator", "denominator",
        "exponent-10000", "exponent-minus-10000", "digits-4301",
        "fraction-digits-4301", "variable-4301", "power-4301"])
@pytest.mark.parametrize("where", ["candidate", "spec"])
def test_numbers_that_stall_or_crash_the_reader_are_input_errors(
        text, column, where, cone_spec, tmp_path, capsys):
    # 1e999999999 formed 10^999999999 for minutes, and a digit run longer
    # than int() reads (4,300 by default) ended in a ValueError traceback;
    # the exponents +-9999 and 4,300 digits still read (READER_CASES of
    # test_poly.py)
    if where == "spec":
        cone_spec.write_text(cone_spec.read_text().replace(
            "f1: -1*x1 - 2*x2", f"f1: {text}"))
        argv = ["find-lyap-cone"]
        detail = (f"f1: {OUT_OF_RANGE} (column {column}) (line 2) "
                  "[rule: polynomial]")
    else:
        argv = ["verify", f"--candidate={text}", "--r", "0"]
        detail = f"{OUT_OF_RANGE} (column {column})"
    start = time.perf_counter()
    code = main([argv[0], str(cone_spec), *argv[1:],
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"status=input-error detail='{detail}'"


def test_verify_printed_candidate(cone_spec, tmp_path):
    code = main(["verify", str(cone_spec),
                 "--candidate", "2.9*x1^2 + 1*x1*x2 + 1*x2^2", "--r", "0",
                 "--out", str(tmp_path / "v")])
    assert code == EXIT_OK


def test_verify_failing_candidate(cone_spec, tmp_path):
    # leading-minus candidates need the --candidate=... form under argparse
    code = main(["verify", str(cone_spec), "--candidate=-1*x1^2", "--r", "0",
                 "--out", str(tmp_path / "v")])
    assert code == EXIT_NOT_FOUND


def test_verify_requires_candidate(cone_spec):
    assert main(["verify", str(cone_spec)]) == EXIT_USAGE


def test_simulate_writes_csv(cone_spec, tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", str(cone_spec), "--T", "1.0", "--dt", "1e-3",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,eta1,eta2"
    assert len(lines) == 1002


def test_partition_dump(cone_spec, capsys):
    code = main(["partition-dump", str(cone_spec), "--sweeps", "1"])
    assert code == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4  # refined section gives two cells, faces stay singletons
    for line in lines:
        for vertex in line.split(";"):
            assert len(vertex.split(",")) == 2


def test_simulate_from_the_origin(tmp_path, capsys):
    """V = h/|x|^(2r) at x = 0: 0 when deg h > 2r, else an input error."""
    common = ["simulate", str(SQ3D_SPEC), "--x0=0,0,0", "--T", "0.05",
              "--dt", "0.01", "--r", "1"]
    code = main(common + ["--candidate", "1*x1^2 + 1*x2^2 + 1*x3^2",
                          "--out", str(tmp_path / "deg2")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=input-error")
    out = tmp_path / "deg4"
    code = main(common + ["--candidate", "1*x1^4 + 1*x3^4", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0.0"] * 6


@pytest.mark.parametrize("command, flag, spec_name", [
    (["partition-dump"], "--seed", "cone_spec"),
    (["simulate", "--x0=2,0.5"], "--density", "cone_spec"),
    (["find-lyap-cone", "--deg", "2"], "--samples", "cone_spec"),
    (["find-lyap-sos", "--deg", "2"], "--tau-act", "cusp_spec"),
    (["find-lyap-cone", "--deg", "2"], "--margin", "cone_spec"),
    (["find-lyap-sos", "--deg", "2"], "--eps-pd", "cusp_spec"),
], ids=["partition-dump", "simulate", "find-lyap-cone", "find-lyap-sos",
        "find-lyap-cone-margin", "find-lyap-sos-eps-pd"])
def test_flags_a_command_does_not_read_are_usage_errors(
        command, flag, spec_name, request, tmp_path):
    spec = request.getfixturevalue(spec_name)
    assert main([command[0], str(spec), *command[1:], flag, "5",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_spec_keys_nothing_reads_are_input_errors(tmp_path, capsys):
    for key in ("sweeps: 3", "r: 1", "margin: 1e-6", "tau_act: 1e-8",
                "eps_pd: 1e-3", "seed: 3", "tier: sdp"):
        path = tmp_path / "cone.spec"
        path.write_text(CONE_SPEC + key + "\n")
        assert main(["partition-dump", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "status=input-error")


@pytest.mark.parametrize("command", [["partition-dump"],
                                     ["simulate", "--T", "0.01"]],
                         ids=["partition-dump", "simulate"])
def test_bad_schedule_is_an_input_error_of_every_command(command, tmp_path,
                                                          capsys):
    # only find-lyap-cone checked the schedule; the other commands ran
    spec = tmp_path / "cone.spec"
    spec.write_text(CONE_SPEC.replace("schedule: 2 0 6", "schedule: 0 -1 -4"))
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "status=input-error detail='schedule entry 0 -1 -4: deg must be at "
        "least 1, r and sweeps at least 0 [rule: schedule]'")
    assert not (tmp_path / "o").exists()


SPECS = Path(__file__).resolve().parents[1] / "specs"


@pytest.mark.parametrize("name, key, command", [
    ("cone2d.spec", "deg: 4", ["partition-dump"]),
    ("cusp_box.spec", "schedule: 9 9 9",
     ["verify", "--candidate", "1*x1^2 + 1*x2^2"]),
], ids=["deg-on-cone", "schedule-on-set"])
def test_keys_of_the_other_mode_are_input_errors(name, key, command,
                                                 tmp_path, capsys):
    # a cone spec never reads deg, nor a set spec schedule: both passed
    text = (SPECS / name).read_text() + key + "\n"
    spec = tmp_path / name
    spec.write_text(text)
    with pytest.raises(SpecFileError) as err:
        parse_spec(spec)
    assert err.value.rule == "mode-key"
    assert err.value.line == len(text.splitlines())
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    mode = "cone" if name == "cone2d.spec" else "semialgebraic"
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"status=input-error detail=\"'{key.split(':')[0]}' is not a {mode} "
        f"mode key (line {err.value.line}) [rule: mode-key]\"")
    assert not (tmp_path / "o").exists()
    for bundled in sorted(SPECS.glob("*.spec")):
        parse_spec(bundled)


def test_verify_rejects_the_zero_cone_candidate(tmp_path, capsys):
    # h = 0 has minimum 0.0 on every section, and passed as verified
    code = main(["verify", str(SPECS / "cone2d.spec"), "--candidate", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_NOT_FOUND
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=verification-failed worst-check=h-on-sections worst-min=0.0"


@pytest.mark.parametrize("cone", ["cone:\n", "cone1: 1*x1\ncone2: 1*x2\n"],
                         ids=["plane", "quadrant"])
def test_verify_rejects_a_weak_decrease(cone, tmp_path, capsys):
    # |x|^2 is constant along the rotation, so s0 has minimum 0.0 on every
    # section; on the quadrant every trajectory stops on the face x2 = 0
    spec = tmp_path / "rotation.spec"
    spec.write_text("dim: 2\nf1: 1*x2\nf2: -1*x1\n" + cone)
    code = main(["verify", str(spec), "--candidate", "1*x1^2 + 1*x2^2",
                 "--out", str(tmp_path / "v")])
    assert code == EXIT_NOT_FOUND
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=verification-failed worst-check=s0-on-sections worst-min=0.0"


def test_found_cone_certificate_verifies_with_strict_decrease(tmp_path):
    spec = tmp_path / "refine.spec"
    spec.write_text(REFINE_SPEC)
    out = tmp_path / "out"
    assert main(["find-lyap-cone", str(spec), "--deg", "2", "--r", "0",
                 "--sweeps", "4", "--out", str(out)]) == EXIT_OK
    assert main(["verify", str(spec), "--certificate",
                 str(out / "certificate.txt"),
                 "--out", str(tmp_path / "v")]) == EXIT_OK
    minima = dict(re.findall(r"check (\S+): min (\S+) over",
                             (tmp_path / "v" / "report.txt").read_text()))
    assert float(minima["s0-on-sections"]) > 0.0
    assert float(minima["face-decrease"]) > 0.0


@pytest.mark.parametrize("spec, flags", [
    ("cone2d.spec", ["--candidate", "2.9*x1^2 + 1*x1*x2 + 1*x2^2",
                     "--density", "50"]),
    ("cusp_box.spec", ["--candidate", "1*x1^2 + 1*x2^2", "--samples", "200"]),
], ids=["cone", "set"])
def test_verify_csv_holds_one_row_per_sample(spec, flags, tmp_path):
    out = tmp_path / "v"
    main(["verify", str(SPECS / spec), *flags, "--csv", "--out", str(out)])
    rows = (out / "report.csv").read_text().splitlines()
    counts = re.findall(r" over (\d+) samples",
                        (out / "report.txt").read_text())
    assert rows[0] == "quantity,value,point"
    assert len(rows) - 1 == sum(map(int, counts)) > 0


# the first 16 hex digits of sha256 of report.txt and report.csv of a verify
# with a fixed candidate, so no solver runs; the square-cone minima tie at
# the edge vertex (0.25, 0.25, 0.5), where several sections meet
ORACLE_REPORT_PINS = {
    "cone2d": (["cone2d.spec", "--candidate", "2.9*x1^2 + 1*x1*x2 + 1*x2^2",
                "--r", "0"], "7c9a5cb9b7bb4538", "49dd56facb14312a"),
    "sq3d": (["sq3d.spec", "--candidate",
              "1*x1^4 + 1*x2^4 + 2*x3^4 + 1*x1^2*x3^2", "--r", "1"],
             "a9008d9dcdc76b47", "153bc8b50c4a7c6e"),
    "refine1": (["refine1.spec", "--candidate", "1*x1^2 + 1*x2^2 + 2*x3^2",
                 "--r", "0"], "b9ca9355054d6f38", "1f56a6de47cf466c"),
    "cusp_box": (["cusp_box.spec", "--candidate", "1*x1^2 + 1*x2^2",
                  "--samples", "2000"],
                 "887fbc87a376ba0c", "39c91141a61e809d"),
}


@pytest.mark.parametrize("case", ORACLE_REPORT_PINS)
def test_oracle_reports_are_pinned(case, tmp_path):
    (spec, *flags), txt, csv = ORACLE_REPORT_PINS[case]
    (tmp_path / "refine1.spec").write_text(REFINE_SPEC)
    path = tmp_path / spec if spec == "refine1.spec" else SPECS / spec
    out = tmp_path / "v"
    main(["verify", str(path), *flags, "--csv", "--out", str(out)])
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in ("report.txt", "report.csv")]
    assert digests == [txt, csv]


# a linear field on the 4-D cone x4 >= 2|x1|, 2|x2|, 2|x3|, whose sections
# are cubes; it certifies at d = 2, r = 0 with margin 0.1559529854671281
CUBE4_SPEC = """\
dim: 4
f1: -1*x1 + 0.5*x2 - 0.1*x4
f2: -0.5*x1 - 1*x2
f3: -1*x3 + 0.2*x1
f4: -1*x4
cone1: 2*x1 + 1*x4
cone2: -2*x1 + 1*x4
cone3: 2*x2 + 1*x4
cone4: -2*x2 + 1*x4
cone5: 2*x3 + 1*x4
cone6: -2*x3 + 1*x4
"""

# the first 16 hex digits of sha256 of find-lyap-cone's certificate.txt
# and partition-dump's partitions.txt, recorded before the orthant and
# face sections came from one table keyed by their tight rows; refine1
# certifies at sweep 1, so its certificate prints refined cells
CONE_OUTPUT_PINS = {
    "sq3d": (["find-lyap-cone", "sq3d.spec"], "certificate.txt",
             "6f2db7f36d8a1180"),
    "cone2d": (["find-lyap-cone", "cone2d.spec"], "certificate.txt",
               "064f30713968c5d7"),
    "refine1": (["find-lyap-cone", "refine1.spec", "--deg", "2", "--r", "0",
                 "--sweeps", "4"], "certificate.txt", "c25c14847e08e759"),
    "cube4": (["find-lyap-cone", "cube4.spec", "--deg", "2", "--r", "0",
               "--sweeps", "1"], "certificate.txt", "557e6f1934e5f384"),
    "sq3d-partitions": (["partition-dump", "sq3d.spec", "--sweeps", "1"],
                        "partitions.txt", "b25e1ed567366064"),
    "cube4-partitions": (["partition-dump", "cube4.spec", "--sweeps", "1"],
                         "partitions.txt", "cbd5312c5503c162"),
}


@pytest.mark.parametrize("case", CONE_OUTPUT_PINS)
def test_cone_outputs_are_pinned(case, tmp_path, capsys):
    (command, spec, *flags), name, digest = CONE_OUTPUT_PINS[case]
    (tmp_path / "refine1.spec").write_text(REFINE_SPEC)
    (tmp_path / "cube4.spec").write_text(CUBE4_SPEC)
    path = tmp_path / spec if (tmp_path / spec).exists() else SPECS / spec
    out = tmp_path / "out"
    assert main([command, str(path), *flags, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--candidate", "1*x1^2 + 1*x2^2", "--r", "0"]),
    ("find-lyap-cone", []),
    ("partition-dump", []),
])
def test_cone_with_empty_interior_is_an_input_error(command, flags, tmp_path,
                                                    capsys):
    # verify crashed with a traceback and no status line on the line x1 = 0
    spec = tmp_path / "thin.spec"
    spec.write_text("dim: 2\nf1: -1*x1\nf2: -1*x2\n"
                    "cone1: 1*x1\ncone2: -1*x1\n")
    code = main([command, str(spec), *flags, "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "status=input-error detail='cone has empty interior in every orthant "
        "(trivial problem)'")


def test_partition_dump_writes_its_file_when_out_is_given(cone_spec, tmp_path,
                                                          monkeypatch, capsys):
    # --out . was taken for the default, and wrote nothing
    monkeypatch.chdir(tmp_path)
    assert main(["partition-dump", str(cone_spec)]) == EXIT_OK
    assert not (tmp_path / "partitions.txt").exists()
    capsys.readouterr()
    assert main(["partition-dump", str(cone_spec), "--out", "."]) == EXIT_OK
    assert (tmp_path / "partitions.txt").read_text() == \
        capsys.readouterr().out


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_cli_examples_parse():
    # a renamed or removed flag would leave the README's examples wrong
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    examples = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("lyapcert ")]
    assert len(examples) >= 5
    for argv in examples:
        assert (SPECS.parent / argv[2]).is_file()
        build_parser().parse_args(argv[1:])


def test_readme_lists_the_spec_keys_and_flags_the_cli_reads():
    keys = re.search(r"Optional keys:(.*?`)\.", README, re.S).group(1)
    assert set(re.findall(r"`(\w+)", keys)) == _OPTION_KEYS
    flags = re.search(r"Useful flags:(.*?)\n\n", README, re.S).group(1)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    known = {flag for p in commands.values()
             for flag in p._option_string_actions}
    assert set(re.findall(r"`(--[\w-]+)", flags)) <= known


# the benchmark's refine1 field: it certifies at d=2, r=0 after one sweep
REFINE1_SPEC = """\
dim: 3
f1: -1.5*x1 + 2.5*x2
f2: -1.5*x1 - 1.2*x2 - 0.8*x3
f3: 0.2*x1 - 0.3*x2
cone1: 1*x1 + 0.5*x3
cone2: -1*x1 + 0.5*x3
cone3: 1*x2 + 0.5*x3
cone4: -1*x2 + 0.5*x3
schedule: 2 0 4
"""


def test_sweeps_flag_overrides_the_spec_schedule(tmp_path, capsys):
    path = tmp_path / "refine1.spec"
    path.write_text(REFINE1_SPEC)
    assert main(["find-lyap-cone", str(path),
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    assert " sweeps=1 " in capsys.readouterr().err.splitlines()[-1]
    assert main(["find-lyap-cone", str(path), "--sweeps", "0",
                 "--out", str(tmp_path / "b")]) == EXIT_NOT_FOUND
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=exhausted-schedule")


def test_negative_r_is_an_input_error_before_any_lp(tmp_path, monkeypatch,
                                                    capsys):
    # refine1 solved its LP and ended "exhausted-schedule" with d=2 r=-1
    path = tmp_path / "refine1.spec"
    path.write_text(REFINE1_SPEC)
    monkeypatch.setattr(linprog, "solve",
                        lambda *args, **kw: pytest.fail("LP solved"))
    code = main(["find-lyap-cone", str(path), "--deg", "2", "--r", "-1",
                 "--sweeps", "0", "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=input-error detail='--r must be at least 0, got -1'"
    assert not (tmp_path / "o").exists()


def test_missing_spec_is_usage_error(tmp_path):
    assert main(["find-lyap-cone", str(tmp_path / "none.spec")]) == EXIT_USAGE


def test_cone_command_on_sos_spec_is_usage_error(cusp_spec):
    assert main(["find-lyap-cone", str(cusp_spec)]) == EXIT_USAGE


USAGE_ERRORS = [
    ("cusp_spec", ["find-lyap-cone"], "cone-command-needs-cone-spec"),
    ("cone_spec", ["find-lyap-sos"], "sos-command-needs-semialgebraic-spec"),
    ("cusp_spec", ["partition-dump"], "partition-dump-needs-cone-spec"),
    ("cone_spec", ["verify"], "verify-needs-candidate-or-certificate"),
    ("cusp_spec", ["simulate"], "simulate-needs-x0"),
    ("cone_spec", ["simulate", "--x0", "1 2 3"], "x0-dimension-mismatch"),
]


@pytest.mark.parametrize("spec_name, command, detail", USAGE_ERRORS,
                         ids=[detail for *_, detail in USAGE_ERRORS])
def test_usage_errors_are_input_errors(spec_name, command, detail, request,
                                       tmp_path, capsys):
    # a command that the spec or its flags cannot serve is bad input, with
    # the status word of every other input error
    spec = request.getfixturevalue(spec_name)
    assert main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"status=input-error detail='{detail}'"


def test_unstable_system_exhausts(tmp_path):
    path = tmp_path / "grow.spec"
    path.write_text("dim: 2\nf1: x1\nf2: x2\ncone1: 1*x1\ncone2: 1*x2\n")
    code = main(["find-lyap-cone", str(path), "--deg", "2", "--r", "0",
                 "--sweeps", "4", "--out", str(tmp_path / "o")])
    assert code == EXIT_NOT_FOUND


@pytest.mark.parametrize("command, spec_name", [
    (["find-lyap-cone", "--deg", "2", "--r", "0"], "cone_spec"),
    (["find-lyap-sos", "--deg", "2", "--tier", "dsos"], "cusp_spec"),
], ids=["cone", "dsos"])
def test_stalled_lp_is_solver_failure(command, spec_name, request, tmp_path,
                                      monkeypatch, capsys):
    monkeypatch.setattr(linprog, "solve",
                        lambda lp, **kw: linprog.LpResult("stalled"))
    spec = request.getfixturevalue(spec_name)
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=solver-failure")


@pytest.mark.parametrize("command, spec_name, owner, name", [
    (["find-lyap-cone", "--deg", "2", "--r", "0"], "cone_spec", linprog,
     "solve"),
    (["find-lyap-sos", "--deg", "2", "--tier", "sdp"], "cusp_spec", sos_cert,
     "solve_sdp"),
], ids=["cone", "sdp"])
def test_linalg_error_is_solver_failure(command, spec_name, owner, name,
                                        request, tmp_path, monkeypatch,
                                        capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(owner, name, singular)
    spec = request.getfixturevalue(spec_name)
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=solver-failure detail='Singular matrix'"


def test_malformed_sdp_is_solver_failure(cusp_spec, tmp_path, monkeypatch,
                                         capsys):
    # the search builds every SDP itself, so a malformed one is a solver
    # failure: here the SDP loses its last block, which is a NumericalError
    def one_block_short(A, **kwargs):
        return sdpsolve.SemidefiniteProgram(A=A[:-1], **kwargs)

    monkeypatch.setattr(sos_cert, "SemidefiniteProgram", one_block_short)
    code = main(["find-lyap-sos", str(cusp_spec), "--deg", "2", "--tier",
                 "sdp", "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=solver-failure detail='one objective matrix per block required'"


@pytest.mark.parametrize("argv", [
    ["partition-dump", "{cone}", "--sweeps", "1"],
    # the square cone's field of the benchmark that certifies only after
    # one refinement sweep
    ["find-lyap-cone", "{refine}", "--deg", "2", "--r", "0", "--sweeps", "4"],
], ids=["partition-dump", "find-lyap-cone"])
def test_degenerate_bisection_is_solver_failure(argv, cone_spec, tmp_path,
                                                monkeypatch, capsys):
    # a NumericalError from refinement is a solver failure: here every
    # bisection raises one
    def degenerate(simplex):
        raise NumericalError("degenerate edge midpoint at the origin")

    refine = tmp_path / "refine.spec"
    refine.write_text(SQ3D_SPEC.read_text().replace(
        "f1: -1*x1 + 2*x2 - 0.2*x3\nf2: -2*x1 - 1*x2 + 0.1*x3\n"
        "f3: 0.3*x1 - 0.5*x3",
        "f1: -1.5*x1 + 2.5*x2\nf2: -1.5*x1 - 1.2*x2 - 0.8*x3\n"
        "f3: 0.2*x1 - 0.3*x2"))
    monkeypatch.setattr(cones, "bisect_longest_edge", degenerate)
    argv = [a.format(cone=cone_spec, refine=refine) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_SOLVER_FAILURE
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=solver-failure detail='degenerate edge midpoint at the origin'"


def test_failed_projection_is_solver_failure(sq3d_run, tmp_path,
                                            monkeypatch, capsys):
    # multipliers far too large: the complementarity check after NNLS fails
    monkeypatch.setattr(tangency, "nnls",
                        lambda A, b: np.full(A.shape[1], 10.0))
    cert = tmp_path / "certificate.txt"
    cert.write_text(sq3d_run[1])
    code = main(["verify", str(SQ3D_SPEC), "--certificate", str(cert),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=solver-failure")
    assert "complementarity" in status


def test_simulator_failure_is_solver_failure(cone_spec, tmp_path,
                                             monkeypatch, capsys):
    # a projection that does nothing: the state leaves the cone
    monkeypatch.setattr(flow, "project_cone", lambda z, cone: z)
    code = main(["simulate", str(cone_spec), "--T", "1.0", "--dt", "1e-3",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=solver-failure")
    assert "left the set" in status


def test_blow_up_is_solver_failure(tmp_path, capsys):
    # x' = x^2 from x = 1 blows up at t = 1; Python's float ** raises
    # OverflowError where * would give inf
    spec = tmp_path / "blowup.spec"
    spec.write_text("dim: 2\nf1: 1*x1^2\nf2: 1*x2^2\n"
                    "cone1: 1*x1\ncone2: 1*x2\n")
    code = main(["simulate", str(spec), "--x0", "1.0 1.0", "--T", "2",
                 "--dt", "1e-3", "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=solver-failure")
    assert "overflowed" in status


@pytest.mark.parametrize("constraints", [
    "cone1: 1*x1\ncone2: 1*x2\n",
    "g1: 1 - x2\nbox1: -1 1\nbox2: -1 1\n",
], ids=["cone", "set"])
def test_state_past_the_float_range_is_solver_failure(constraints, tmp_path,
                                                      capsys):
    # float * overflows to inf without OverflowError: x1 is inf after two
    # steps, and 0 * inf is NaN in the row sum of cone2
    spec = tmp_path / "stiff.spec"
    spec.write_text("dim: 2\nf1: 1e300*x1\nf2: -1*x2\n" + constraints)
    code = main(["simulate", str(spec), "--x0", "1.0 1.0", "--T", "0.1",
                 "--dt", "1e-3", "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=solver-failure")
    assert "overflowed the float range" in status
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_unconverged_set_projection_is_solver_failure(tmp_path, monkeypatch,
                                                      capsys):
    spec = tmp_path / "cusp.spec"
    spec.write_text(CUSP_SPEC.replace("f1: -1*x1^2\nf2: 0",
                                      "f1: 1*x1\nf2: 1*x2"))
    # a start at the corner (1, 1), driven outward: the first step
    # violates both generators, so the loop hands it to project_set, and a
    # cap of two iterations leaves no room for the check after its Newton
    # steps
    monkeypatch.setattr(flow, "MAX_PROJECTION_ITER", 2)
    code = main(["simulate", str(spec), "--x0=1,1", "--T", "0.1",
                 "--dt", "1e-3", "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER_FAILURE
    status = capsys.readouterr().err.splitlines()[-1]
    assert status.startswith("status=solver-failure")
    assert "did not converge" in status


@pytest.mark.parametrize("flags", [["--x0=-1,-1"], ["--dt", "0"], ["--T=-1"]],
                         ids=["start-outside", "dt-zero", "T-negative"])
def test_bad_simulation_input_is_simulation_error(flags, cone_spec, tmp_path,
                                                  capsys):
    code = main(["simulate", str(cone_spec), *flags,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "status=input-error")


@pytest.mark.parametrize("flags", [
    ["--T", "inf"], ["--T", "nan"], ["--dt", "nan"], ["--dt", "inf"],
    ["--T=-inf"], ["--T", "1e300", "--dt", "1e-300"],
], ids=["T-inf", "T-nan", "dt-nan", "dt-inf", "T-minus-inf", "T-over-dt-inf"])
def test_non_finite_simulation_input_is_simulation_error(flags, cone_spec,
                                                         tmp_path, capsys):
    # round(T / dt) of inf or NaN raised before it was checked
    code = main(["simulate", str(cone_spec), *flags,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "status=input-error detail='T and dt must be finite and "
        "positive, with T / dt finite'")
    assert not (tmp_path / "o").exists()


NON_FINITE_START_SPECS = {
    "row-free-cone": "dim: 2\nf1: -1*x1\nf2: -1*x2\ncone:\n",
    "slab-disc": "dim: 2\nf1: -1*x1\nf2: -1*x2\ng1: 1 - x2^2\n"
                 "g2: 4 - x1^2 - x2^2\nbox1: -2 2\nbox2: -1 1\n",
}


@pytest.mark.parametrize("x0", ["nan,0.5", "0.5,nan", "inf,0.5", "0.5,inf",
                                "-inf,0.5", "0.5,-inf"])
@pytest.mark.parametrize("name", list(NON_FINITE_START_SPECS))
def test_non_finite_start_is_an_input_error(name, x0, tmp_path, capsys):
    # a NaN start ran until the state overflowed on the row-free cone and
    # on the set, where the set's verdict hung on the order of min's
    # arguments
    spec = tmp_path / f"{name}.spec"
    spec.write_text(NON_FINITE_START_SPECS[name])
    code = main(["simulate", str(spec), f"--x0={x0}", "--T", "0.1",
                 "--dt", "1e-3", "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        "status=input-error detail='initial state must be finite'"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec_name, command, detail", [
    ("cone_spec", ["find-lyap-cone", "--deg", "-2", "--r", "0"],
     "--deg must be at least 1, got -2"),
    ("cone_spec", ["find-lyap-cone", "--deg", "0"],
     "--deg must be at least 1, got 0"),
    ("cone_spec+schedule: 2 0 4; 0 0 4", ["find-lyap-cone"],
     "schedule entry 0 0 4: deg must be at least 1, r and sweeps at least 0"
     " [rule: schedule]"),
    ("cone_spec+schedule: 2 -1 4", ["find-lyap-cone"],
     "schedule entry 2 -1 4: deg must be at least 1, r and sweeps at least 0"
     " [rule: schedule]"),
    ("cone_spec+schedule: 2 0 -1", ["find-lyap-cone"],
     "schedule entry 2 0 -1: deg must be at least 1, r and sweeps at least 0"
     " [rule: schedule]"),
    ("cone_spec", ["find-lyap-cone", "--sweeps", "-1"],
     "--sweeps must be at least 0, got -1"),
    ("cone_spec", ["find-lyap-cone", "--deg", "2", "--sweeps", "-1"],
     "--sweeps must be at least 0, got -1"),
    ("cone_spec", ["partition-dump", "--sweeps", "-1"],
     "--sweeps must be at least 0, got -1"),
    ("cusp_spec", ["find-lyap-sos", "--deg", "2", "--samples", "0"],
     "--samples must be at least 1, got 0"),
    ("cusp_spec", ["find-lyap-sos", "--samples", "-5"],
     "--samples must be at least 1, got -5"),
    ("cusp_spec", ["verify", "--candidate", "1*x1^2 + 1*x2^2",
                   "--samples", "0"], "--samples must be at least 1, got 0"),
    ("cusp_spec", ["find-lyap-sos", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
    ("cusp_spec", ["verify", "--candidate", "1*x1^2 + 1*x2^2",
                   "--seed", "-1"], "--seed must be at least 0, got -1"),
    ("cone_spec", ["find-lyap-cone", "--density", "0"],
     "--density must be at least 1, got 0"),
    ("cone_spec", ["verify", "--candidate", "1*x1^2 + 1*x2^2", "--r", "0",
                   "--density", "-3"], "--density must be at least 1, got -3"),
], ids=["find-cone-deg-negative", "find-cone-deg-zero",
        "schedule-deg-zero", "schedule-r-negative", "schedule-sweeps-negative",
        "find-cone-sweeps", "find-cone-deg-sweeps", "partition-dump-sweeps",
        "find-sos-samples-zero", "find-sos-samples-negative",
        "verify-samples-zero", "find-sos-seed-negative",
        "verify-seed-negative", "find-cone-density", "verify-density"])
def test_counts_below_their_least_value_are_input_errors(
        spec_name, command, detail, request, tmp_path, capsys):
    # --sweeps -1 ran as 0 sweeps, --samples 0 reported a misconfigured
    # bounding box, --density 0 verified on the section vertices alone, a
    # negative --seed reached numpy's generator, and a degree of 0 ran a
    # lattice of NaNs; a "+" appends a line to the spec
    spec_name, _, extra = spec_name.partition("+")
    spec = request.getfixturevalue(spec_name)
    if extra:
        spec.write_text(spec.read_text().replace("schedule: 2 0 6\n", "")
                        + extra + "\n")
    code = main([command[0], str(spec), *command[1:],
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"status=input-error detail='{detail}'"
    assert not (tmp_path / "o").exists()


OVERFLOW_CONE_SPEC = CONE_SPEC.replace(
    "f1: -1*x1 - 2*x2\nf2: -1*x1 - 1*x2",
    "f1: -8e307*x1 - 8e307*x2\nf2: -8e307*x1 - 8e307*x2")
# the coefficients fit a float here, but the LP's values do not
OVERFLOW_ORTHANT_SPEC = OVERFLOW_CONE_SPEC.replace(
    "cone1: -0.25*x1 + 1*x2\ncone2: 1*x1 - 0.25*x2",
    "cone1: 1*x1\ncone2: 1*x2")
OVERFLOW_DISC_SPEC = """\
dim: 2
f1: -1e308*x1
f2: -1*x2
g1: 1 - x1^2 - x2^2
box1: -1 1
box2: -1 1
"""
CANDIDATE = "2.9*x1^2 + 1*x1*x2 + 1*x2^2"
# spec text, argv ({spec}: the spec file, {tmp}: its directory, which holds
# a regular file "file"), sos_cert attributes to patch, exit code, and the
# last line of stderr, whole or as a tuple of its parts
FAILURE_PATHS = {
    "int-flag-not-an-int": (
        CONE_SPEC, ["find-lyap-cone", "{spec}", "--deg", "abc"], {},
        EXIT_USAGE,
        "status=input-error detail=\"argument --deg: invalid int value: "
        "'abc'\""),
    "unknown-command": (
        CONE_SPEC, ["bogus", "{spec}"], {}, EXIT_USAGE,
        ("status=input-error detail=\"argument command: invalid choice: ",
         "bogus", "\"")),
    "missing-certificate": (
        CONE_SPEC, ["verify", "{spec}", "--certificate", "{tmp}/none.txt"],
        {}, EXIT_USAGE,
        "status=input-error detail=\"[Errno 2] No such file or directory: "
        "'{tmp}/none.txt'\""),
    "out-under-a-file": (
        CONE_SPEC, ["simulate", "{spec}", "--T", "0.01",
                    "--out", "{tmp}/file/o"], {}, EXIT_USAGE,
        "status=input-error detail=\"[Errno 20] Not a directory: "
        "'{tmp}/file/o'\""),
    "cone-field-overflow": (
        OVERFLOW_CONE_SPEC, ["find-lyap-cone", "{spec}", "--deg", "2"], {},
        EXIT_SOLVER_FAILURE, "status=solver-failure detail='cone LP tables: "
        "a coefficient exceeds the float range'"),
    "set-field-overflow": (
        OVERFLOW_DISC_SPEC, ["find-lyap-sos", "{spec}", "--deg", "2"], {},
        EXIT_SOLVER_FAILURE, "status=solver-failure detail='SOS rows: "
        "a coefficient exceeds the float range'"),
    "orthant-field-overflow": (
        OVERFLOW_ORTHANT_SPEC, ["find-lyap-cone", "{spec}", "--deg", "2"], {},
        EXIT_SOLVER_FAILURE, "status=solver-failure detail='LP data must be "
        "finite: a coefficient exceeds the float range'"),
    "sos-recheck-fails": (
        CUSP_SPEC, ["find-lyap-sos", "{spec}", "--deg", "2"],
        {"RESIDUAL_TOL": -1.0}, EXIT_SOLVER_FAILURE,
        ("status=solver-failure detail='substitution residual ",
         " exceeds -1.0e+00'")),
    "seed-on-cone-spec": (
        CONE_SPEC, ["verify", "{spec}", "--candidate", CANDIDATE,
                    "--seed", "7", "--samples", "3"], {}, EXIT_USAGE,
        "status=input-error detail='--seed needs a semialgebraic spec'"),
    "samples-on-cone-spec": (
        CONE_SPEC, ["verify", "{spec}", "--candidate", CANDIDATE,
                    "--samples", "3"], {}, EXIT_USAGE,
        "status=input-error detail='--samples needs a semialgebraic spec'"),
    "density-on-set-spec": (
        CUSP_SPEC, ["verify", "{spec}", "--candidate", "x1^2 + x2^2",
                    "--density", "5"], {}, EXIT_USAGE,
        "status=input-error detail='--density needs a cone spec'"),
    "dump-sdpa-on-dsos": (
        CUSP_SPEC, ["find-lyap-sos", "{spec}", "--tier", "dsos",
                    "--dump-sdpa"], {}, EXIT_USAGE,
        "status=input-error detail='--dump-sdpa needs --tier sdp'"),
    "spec-deg-not-an-int": (
        CUSP_SPEC.replace("deg: 2", "deg: two"), ["find-lyap-sos", "{spec}"],
        {}, EXIT_USAGE,
        "status=input-error detail=\"deg must be an integer, got 'two'\""),
    "spec-T-not-a-number": (
        CONE_SPEC.replace("T: 20", "T: ten"), ["simulate", "{spec}"], {},
        EXIT_USAGE,
        "status=input-error detail=\"T must be a number, got 'ten'\""),
    "x0-not-a-number": (
        CONE_SPEC, ["simulate", "{spec}", "--x0", "2 a"], {}, EXIT_USAGE,
        "status=input-error detail=\"x0 must be a number, got 'a'\""),
    "spec-zero-denominator": (
        CONE_SPEC.replace("f1: -1*x1", "f1: -1/0*x1"),
        ["find-lyap-cone", "{spec}"], {}, EXIT_USAGE,
        "status=input-error detail='f1: zero denominator (column 2) (line 2) "
        "[rule: polynomial]'"),
    "candidate-zero-denominator": (
        CONE_SPEC, ["verify", "{spec}", "--candidate", "1/0*x1^2"], {},
        EXIT_USAGE,
        "status=input-error detail='zero denominator (column 1)'"),
}


@pytest.mark.parametrize("case", FAILURE_PATHS)
def test_failure_paths_end_in_their_status_line(case, tmp_path, monkeypatch,
                                                capsys):
    # each exited 1, the code of an exhausted search, with a traceback and
    # no status line, or with the wrong status, or it ran a flag that its
    # spec never reads.  A status given as a tuple is the parts of the line
    # that the program words itself, in order; the text between them (a
    # float residual, Python's own messages) may differ between machines.
    # A failure is reported by its status line alone: no RuntimeWarning
    # (such as numpy's overflow in the field of orthant-field-overflow)
    # reaches stderr before it.
    text, argv, patches, code, status = FAILURE_PATHS[case]
    parts = (status,) if isinstance(status, str) else status
    spec = tmp_path / "case.spec"
    spec.write_text(text)
    (tmp_path / "file").touch()
    for name, value in patches.items():
        monkeypatch.setattr(sos_cert, name, value)
    argv = [a.format(spec=spec, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(argv) == code
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    pattern = ".*".join(re.escape(p.format(tmp=tmp_path)) for p in parts)
    assert re.fullmatch(pattern, capsys.readouterr().err.splitlines()[-1])


@pytest.mark.parametrize("line, detail", [
    ("dimension: two", "dimension must be an integer, got 'two'"),
    ("r: 1.5", "r must be an integer, got '1.5'"),
], ids=["dimension", "r"])
def test_certificate_numbers_must_be_integers(line, detail, cone_spec,
                                              tmp_path, capsys):
    cert = tmp_path / "certificate.txt"
    cert.write_text(f"kind: conic-lyapunov-certificate\n{line}\n"
                    f"h: {CANDIDATE}\n")
    assert main(["verify", str(cone_spec), "--certificate", str(cert),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"status=input-error detail=\"{cert} {detail}\""


def test_a_certificate_that_is_not_text_is_an_input_error(cone_spec, tmp_path,
                                                          capsys):
    cert = tmp_path / "certificate.txt"
    cert.write_bytes(b"\x80")
    assert main(["verify", str(cone_spec), "--certificate", str(cert),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "status=input-error detail=\"'utf-8' codec can't decode byte 0x80 in "
        "position 0: invalid start byte\"")


def test_verify_calls_nnls_only_at_corner_samples(sq3d_run, tmp_path,
                                                  monkeypatch):
    system = parse_spec(str(SQ3D_SPEC)).system
    C = system.cone.C
    corners = 0
    for simplex in [s for rows, cells in section_table(system.cone).items()
                    if rows for _, s in cells]:
        pts = oracle.barycentric_grid(simplex, 1000)
        scaled = np.abs(pts @ C.T) / np.linalg.norm(C, axis=1)
        corners += int(((scaled <= 1e-8).sum(axis=1) >= 2).sum())
    calls = []
    solve = tangency.nnls
    monkeypatch.setattr(tangency, "nnls",
                        lambda A, b: calls.append(A.shape) or solve(A, b))
    cert = tmp_path / "certificate.txt"
    cert.write_text(sq3d_run[1])
    assert main(["verify", str(SQ3D_SPEC), "--certificate", str(cert),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    assert corners > 0
    assert len(calls) == corners
    assert all(shape[1] >= 2 for shape in calls)


def test_dsos_certificate_independent_of_blas_threads(tmp_path):
    root = Path(__file__).resolve().parents[1]
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "lyapcert.cli", "find-lyap-sos",
             str(root / "specs" / "cusp_box.spec"), "--deg", "2",
             "--tier", "dsos", "--out", str(out)],
            env=env, check=True, capture_output=True)
        texts.append((out / "certificate.txt").read_text())
    assert texts[0] == texts[1]


def test_outputs_deterministic(cone_spec, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["find-lyap-cone", str(cone_spec), "--out", str(out1)]) == EXIT_OK
    assert main(["find-lyap-cone", str(cone_spec), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "certificate.txt").read_text() == \
        (out2 / "certificate.txt").read_text()


def test_read_certificate_candidate_roundtrip(cone_spec, tmp_path):
    out = tmp_path / "out"
    main(["find-lyap-cone", str(cone_spec), "--out", str(out)])
    kind, poly, r = read_certificate_candidate(out / "certificate.txt", 2)
    assert kind == "conic-lyapunov-certificate"
    assert r == 0
    assert not poly.is_zero()


# -- one argument parser per process -------------------------------------------

def test_main_calls_share_the_parser_and_start_with_fresh_flags(
        cusp_spec, tmp_path, monkeypatch):
    """A flag given to one main call reads as unset in the next, also after
    a call that ended in a parse error, and every call reuses the parser."""
    seen = []
    oracle_flags = cli._oracle_flags

    def recording(args, spec):
        flags = oracle_flags(args, spec)
        seen.append((args.samples, flags["samples"]))
        return flags

    monkeypatch.setattr(cli, "_oracle_flags", recording)
    build_parser()
    before = build_parser.cache_info()
    verify = ["verify", str(cusp_spec), "--out", str(tmp_path),
              "--candidate", "1*x1^2 + 1*x2^2"]
    assert main(verify + ["--samples", "300"]) in (EXIT_OK, EXIT_NOT_FOUND)
    assert main(verify) in (EXIT_OK, EXIT_NOT_FOUND)
    assert main(verify + ["--samples", "7", "--bogus"]) == EXIT_USAGE
    assert main(verify + ["--samples", "x"]) == EXIT_USAGE
    assert main(verify) in (EXIT_OK, EXIT_NOT_FOUND)
    assert seen == [(300, 300), (None, 10_000), (None, 10_000)]
    after = build_parser.cache_info()
    assert (after.misses, after.currsize) == (before.misses, 1)
    assert after.hits == before.hits + 5


def test_import_builds_no_parser():
    """The parser is built by the first main call, never at import, so a
    command pays for it and the interpreter's set-up does not."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = ("import lyapcert.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
