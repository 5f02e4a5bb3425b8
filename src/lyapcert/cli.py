"""Command-line front end.

Reads flat keyed spec files ("key: value" lines, polynomials in the
canonical text grammar), orchestrates the two certificate hierarchies, the
verification oracle, and the simulator, and writes textual artifacts to an
output directory.

Exit codes: 0 when a certificate is found or verification passes, 1 when
the search is exhausted, the oracle rejects every candidate, or
verification fails, 2 for an InputError or a file that cannot be read,
written or decoded (status=input-error), 3 when an LP or SDP of the
search failed to solve and no level certified, or for a NumericalError,
ArithmeticError or LinAlgError (status=solver-failure).  main maps the two
error kinds of lyapcert.errors to their status and exit code in one
place.  Every run ends with one machine-readable "status=..." line on
standard error.  Verbosity comes from LYAPCERT_LOG (quiet, info, debug).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cop_lp, flow, linprog, oracle, sos_cert
from .cones import MAX_ORTHANT_DIMENSION, PolyhedralCone, dump_partition_lines
from .cop_lp import ConicSystem, RationalLyapunovCandidate
from .errors import InputError, NumericalError
from .poly import (Polynomial, PolynomialParseError, format_polynomial,
                   parse_polynomial)
from .sdpsolve import dump_sdpa_sparse
from .sos_cert import SemialgebraicSystem
from .tangency import SemialgebraicSet

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_SOLVER_FAILURE = 3
# --r is read only as the denominator power of a cone --candidate
R_WITHOUT_CONE_CANDIDATE = "--r needs --candidate on a cone spec"
# sweep budget of a cone level that neither a schedule nor --sweeps sets
DEFAULT_SWEEPS = 8
# each oracle flag: the spec mode that reads it, its value when unset, its
# least value, and its help
ORACLE_FLAGS = {
    "--seed": ("semialgebraic", 0, 0, "oracle sampling seed"),
    "--density": ("cone", 10_000, 1, "oracle grid density per section"),
    "--samples": ("semialgebraic", 10_000, 1, "oracle sample count"),
}


class SpecFileError(InputError):
    def __init__(self, message: str, line: int | None = None,
                 rule: str | None = None):
        where = f" (line {line})" if line is not None else ""
        tag = f" [rule: {rule}]" if rule else ""
        super().__init__(f"{message}{where}{tag}")
        self.line = line
        self.rule = rule


@dataclass
class ParsedSpec:
    system: ConicSystem | SemialgebraicSystem
    options: dict

    @property
    def is_conic(self) -> bool:
        return isinstance(self.system, ConicSystem)


# the keys that only one mode reads: the cone hierarchy's level schedule
# and the SOS degree
_CONE_KEYS, _SET_KEYS = {"schedule"}, {"deg"}
_OPTION_KEYS = {"x0", "T", "dt"} | _CONE_KEYS | _SET_KEYS


def parse_spec(path: str | Path) -> ParsedSpec:
    """Parse and validate a system spec file.

    Exactly one constraint block is allowed: cone rows (cone1..coneM as
    linear forms) or generators g1..gM with a bounding box box1..boxn.
    A key of the other mode (schedule on a set spec, deg on a cone spec)
    is an error, and options["schedule"] is the checked list of levels.
    """
    path = Path(path)
    if not path.exists():
        raise SpecFileError(f"spec file {path} does not exist")
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise SpecFileError("expected 'key: value'", lineno, "syntax")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise SpecFileError(f"duplicate key {key!r}", lineno, "syntax")
        entries[key] = (value, lineno)

    def take(key: str) -> tuple[str, int] | None:
        return entries.pop(key, None)

    dim_entry = take("dim")
    if dim_entry is None:
        raise SpecFileError("missing 'dim'", None, "dimension")
    try:
        n = int(dim_entry[0])
    except ValueError:
        raise SpecFileError("'dim' must be an integer", dim_entry[1],
                            "dimension")
    if not 1 <= n <= MAX_ORTHANT_DIMENSION:
        raise SpecFileError(
            f"dimension must be in 1..{MAX_ORTHANT_DIMENSION}", dim_entry[1],
            "dimension")

    def parse_poly_entry(key: str, entry: tuple[str, int]) -> Polynomial:
        value, lineno = entry
        try:
            return parse_polynomial(value, n)
        except PolynomialParseError as exc:
            raise SpecFileError(f"{key}: {exc}", lineno, "polynomial")

    field = []
    for i in range(1, n + 1):
        entry = take(f"f{i}")
        if entry is None:
            raise SpecFileError(f"missing field component f{i}", None,
                                "vector-field")
        field.append(parse_poly_entry(f"f{i}", entry))

    cone_rows = []
    i = 1
    while (entry := take(f"cone{i}")) is not None:
        p = parse_poly_entry(f"cone{i}", entry)
        if p.is_homogeneous() != 1:
            raise SpecFileError(
                f"cone{i} must be a linear form", entry[1], "cone-row-linear")
        row = [float(p.coefficient(tuple(1 if k == j else 0
                                         for k in range(n))))
               for j in range(n)]
        cone_rows.append(row)
        i += 1

    generators = []
    i = 1
    while (entry := take(f"g{i}")) is not None:
        generators.append(parse_poly_entry(f"g{i}", entry))
        i += 1

    boxes = []
    i = 1
    while (entry := take(f"box{i}")) is not None:
        parts = entry[0].split()
        if len(parts) != 2:
            raise SpecFileError(f"box{i} needs 'lo hi'", entry[1], "box")
        try:
            bounds = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise SpecFileError(f"box{i} needs numeric bounds", entry[1], "box")
        if not all(map(math.isfinite, bounds)):
            raise SpecFileError(f"box{i} needs finite bounds", entry[1], "box")
        boxes.append(bounds)
        i += 1

    cone_mode = take("cone")  # bare 'cone:' marks a row-free full space
    for key, (_, lineno) in entries.items():
        if key not in _OPTION_KEYS:
            raise SpecFileError(f"unknown key {key!r}", lineno, "syntax")

    has_cone = bool(cone_rows) or cone_mode is not None
    has_semialg = bool(generators)
    if has_cone == has_semialg:
        raise SpecFileError(
            "exactly one constraint block required: cone rows or generators",
            None, "constraint-block")
    misplaced = (_SET_KEYS if has_cone else _CONE_KEYS) & entries.keys()
    if misplaced:
        key = min(misplaced)
        mode = "cone" if has_cone else "semialgebraic"
        raise SpecFileError(f"{key!r} is not a {mode} mode key",
                            entries[key][1], "mode-key")
    options: dict = {key: value for key, (value, _) in entries.items()}
    if "schedule" in options:
        options["schedule"] = _parse_schedule(options["schedule"])

    for i, comp in enumerate(field, start=1):
        if comp.evaluate((0,) * n) != 0:
            raise SpecFileError(f"f{i}(0) != 0", None, "f-at-origin")

    if has_cone:
        C = np.array(cone_rows) if cone_rows else np.zeros((0, n))
        try:
            system: ConicSystem | SemialgebraicSystem = ConicSystem(
                field, PolyhedralCone(C, dimension=n))
        except InputError as exc:
            rule = "cone-homogeneity" if "homogene" in str(exc) \
                else "cone-system"
            raise SpecFileError(str(exc), None, rule)
    else:
        if len(boxes) != n:
            raise SpecFileError(
                f"semialgebraic mode needs box1..box{n}", None, "box")
        try:
            S = SemialgebraicSet(generators, boxes)
            system = SemialgebraicSystem(field, S)
        except InputError as exc:
            raise SpecFileError(str(exc), None, "semialgebraic-set")
    return ParsedSpec(system, options)


def _parse_schedule(text: str) -> list[tuple[int, int, int]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            d, r, sweeps = map(int, part.split())
        except ValueError:
            raise SpecFileError("schedule entries are 'deg r sweeps'",
                                None, "schedule")
        if d < 1 or r < 0 or sweeps < 0:
            raise SpecFileError(
                f"schedule entry {d} {r} {sweeps}: deg must be at least 1, "
                "r and sweeps at least 0", None, "schedule")
        out.append((d, r, sweeps))
    if not out:
        raise SpecFileError("empty schedule", None, "schedule")
    return out


def default_cone_schedule() -> list[tuple[int, int, int]]:
    schedule = []
    for d in (2, 4, 6):
        rs = {0, 1, (d - 2) // 2}
        for r in sorted(rs):
            schedule.append((d, r, DEFAULT_SWEEPS))
    return schedule


def _status(line: str) -> None:
    print(f"status={line}", file=sys.stderr)


def _number(kind, text, what: str):
    """kind(text), for kind int or float; text that is not one is an
    InputError."""
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{what} must be "
                         f"{'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- certificate files -----------------------------------------------------------


def _echo_system(system) -> list[str]:
    lines = [f"dimension: {system.dimension}"]
    for i, comp in enumerate(system.f, start=1):
        lines.append(f"field-{i}: {format_polynomial(comp)}")
    if isinstance(system, ConicSystem):
        for i, row in enumerate(system.cone.C, start=1):
            terms = {tuple(1 if k == j else 0 for k in range(system.dimension)):
                     row[j] for j in range(system.dimension) if row[j] != 0.0}
            lines.append(f"cone-row-{i}: "
                         f"{format_polynomial(Polynomial(system.dimension, terms))}")
        if system.cone.num_rows == 0:
            lines.append("cone-row-count: 0")
    else:
        for i, g in enumerate(system.S.generators, start=1):
            lines.append(f"generator-{i}: {format_polynomial(g)}")
        for i, (lo, hi) in enumerate(system.S.box, start=1):
            lines.append(f"box-{i}: {lo!r} {hi!r}")
    return lines


def _oracle_footer(report: oracle.Report) -> list[str]:
    """The last lines of a certificate: each oracle check's minimum, then
    the verdict."""
    return [*(f"oracle {c.name}: {c.min_value!r}" for c in report.checks),
            f"oracle-pass: {'true' if report.passed else 'false'}"]


def format_conic_certificate(cert: cop_lp.ConicCertificate,
                             system: ConicSystem,
                             report: oracle.Report) -> str:
    lines = ["kind: conic-lyapunov-certificate"]
    lines += _echo_system(system)
    lines.append(f"degree: {cert.degree}")
    lines.append(f"r: {cert.r}")
    lines.append(f"margin: {cert.margin!r}")
    lines.append(f"h: {format_polynomial(cert.candidate.h)}")
    lines.append(f"sweeps: {cert.sweeps_used}")
    lines.append(f"lp-rows: {cert.lp_rows}")
    lines.append(f"lp-pivots: {cert.lp_pivots}")
    for flag in cert.corner_flags:
        lines.append(f"corner-flag: {flag}")
    for state in cert.sections:
        tag = f"{state.kind}-{state.label}"
        for cell_line in dump_partition_lines([state.partition]):
            lines.append(f"partition {tag}: {cell_line}")
    return "\n".join(lines + _oracle_footer(report)) + "\n"


def format_sos_certificate(cert: sos_cert.SosCertificate,
                           system: SemialgebraicSystem,
                           report: oracle.Report) -> str:
    lines = ["kind: sos-lyapunov-certificate"]
    lines += _echo_system(system)
    lines.append(f"degree: {cert.V.degree()}")
    lines.append(f"tier: {cert.tier}")
    lines.append(f"margin: {cert.margin!r}")
    lines.append(f"eps-pd: {float(sos_cert.EPS_PD)!r}")
    lines.append("decrease-margin: 0")
    lines.append(f"V: {format_polynomial(cert.V)}")
    for name in sorted(cert.multipliers):
        rec = cert.multipliers[name]
        lines.append(f"multiplier {name}: {format_polynomial(rec.polynomial)}")
        if rec.basis:   # a block pruned to nothing has no Gram
            lines.append(f"multiplier-gram-mineig {name}: "
                         f"{rec.min_eigenvalue!r}")
    for name in sorted(cert.phi):
        lines.append(f"phi {name}: {format_polynomial(cert.phi[name])}")
    for label in sorted(cert.residuals):
        lines.append(f"residual {label}: {cert.residuals[label]!r}")
    for flag in cert.flags:
        lines.append(f"flag: {flag}")
    return "\n".join(lines + _oracle_footer(report)) + "\n"


def read_certificate_candidate(path: Path, dimension: int):
    """Extract the candidate from a certificate file: (kind, poly, r).

    A certificate whose `dimension:` line names another dimension is a
    SpecFileError, and one whose `dimension:` or `r:` is no integer an
    InputError.
    """
    kind = None
    poly_text = None
    r = 0
    for raw in path.read_text().splitlines():
        if raw.startswith("kind: "):
            kind = raw.split(": ", 1)[1].strip()
        elif raw.startswith("dimension: "):
            found = _number(int, raw.split(": ", 1)[1], f"{path} dimension")
            if found != dimension:
                raise SpecFileError(f"{path} has dimension {found}, the "
                                    f"spec {dimension}", None, "certificate")
        elif raw.startswith(("h: ", "V: ")):
            poly_text = raw.split(": ", 1)[1]
        elif raw.startswith("r: "):
            r = _number(int, raw.split(": ", 1)[1], f"{path} r")
    if kind is None or poly_text is None:
        raise SpecFileError(f"{path} is not a certificate file", None,
                            "certificate")
    return kind, parse_polynomial(poly_text, dimension), r


# -- commands --------------------------------------------------------------------


def _check_count(flag: str, value: int | None, least: int) -> None:
    """A count flag below its least value is an InputError; an unset flag
    (None) passes."""
    if value is not None and value < least:
        raise InputError(f"{flag} must be at least {least}, got {value}")


def _oracle_flags(args, spec: ParsedSpec) -> dict:
    """The values of the oracle flags that the spec's mode reads, by name,
    each its default when unset.  A flag of the other mode, or one below its
    least value, is an InputError."""
    mode = "cone" if spec.is_conic else "semialgebraic"
    values = {}
    for flag, (reader, default, least, _) in ORACLE_FLAGS.items():
        value = getattr(args, flag[2:], None)
        if reader != mode:
            if value is not None:
                raise InputError(f"{flag} needs a {reader} spec")
            continue
        _check_count(flag, value, least)
        values[flag[2:]] = default if value is None else value
    return values


def cmd_find_lyap_cone(args, spec: ParsedSpec) -> int:
    if not spec.is_conic:
        raise InputError("cone-command-needs-cone-spec")
    system: ConicSystem = spec.system
    _check_count("--deg", args.deg, 1)
    _check_count("--r", args.r, 0)
    _check_count("--sweeps", args.sweeps, 0)
    density = _oracle_flags(args, spec)["density"]
    if args.r is not None and args.deg is None:
        raise InputError("--r sets a single level and needs --deg")
    if args.deg is not None:
        schedule = [(args.deg, args.r or 0, DEFAULT_SWEEPS)]
    elif "schedule" in spec.options:
        schedule = spec.options["schedule"]
    else:
        schedule = default_cone_schedule()
    if args.sweeps is not None:
        schedule = [(d, r, args.sweeps) for d, r, _ in schedule]

    dump = None
    if args.dump_lp:
        out = _out_dir(args)

        def dump(lp, d, r, sweep):
            text = linprog.dump_lp_text(lp)
            (out / f"lp-d{d}-r{r}-s{sweep}.lp").write_text(text)

    outcome = cop_lp.run_hierarchy(system, schedule, lp_dump=dump)
    if not outcome.found and outcome.solver_failure:
        _status(f"solver-failure detail={outcome.solver_failure!r}")
        return EXIT_SOLVER_FAILURE
    if not outcome.found:
        levels = "; ".join(
            f"d={lv.degree} r={lv.r} sweeps={lv.sweeps_done} "
            f"best-margin={lv.best_margin:.3e}" for lv in outcome.levels)
        _status(f"exhausted-schedule detail={levels!r}")
        return EXIT_NOT_FOUND
    cert = outcome.certificate
    report = oracle.verify_conic(cert.candidate, system, grid_density=density)
    out = _out_dir(args)
    text = format_conic_certificate(cert, system, report)
    if not report.passed:
        # a rejected candidate is no certificate
        (out / f"rejected-d{cert.degree}-r{cert.r}.txt").write_text(text)
        _status(f"certificate-rejected-by-oracle margin={cert.margin!r} "
                f"worst={report.worst().min_value!r}")
        return EXIT_NOT_FOUND
    path = out / "certificate.txt"
    path.write_text(text)
    (out / "report.txt").write_text(report.to_text())
    _status(f"certificate-found degree={cert.degree} r={cert.r} "
            f"margin={cert.margin!r} sweeps={cert.sweeps_used} file={path}")
    return EXIT_OK


def cmd_find_lyap_sos(args, spec: ParsedSpec) -> int:
    if spec.is_conic:
        raise InputError("sos-command-needs-semialgebraic-spec")
    system: SemialgebraicSystem = spec.system
    flags = _oracle_flags(args, spec)
    tier = args.tier
    if args.dump_sdpa and tier != "sdp":
        raise InputError("--dump-sdpa needs --tier sdp")
    degrees = [args.deg] if args.deg is not None else \
        [_number(int, spec.options["deg"], "deg")] if "deg" in spec.options \
        else [2, 4, 6]
    out = _out_dir(args)

    dump = None
    if args.dump_sdpa:
        def dump(sdp, deg, slack):
            (out / f"sdp-deg{deg}-s{slack}.dat-s").write_text(
                dump_sdpa_sparse(sdp))
    failure = None
    rejected: dict[int, float] = {}  # degree -> worst oracle value
    for deg in degrees:
        outcome = sos_cert.solve_certificate(system, deg, tier=tier,
                                             sdpa_dump=dump)
        if outcome.status == "certificate":
            cert = outcome.certificate
            report = oracle.verify_sos(cert.V, system, **flags)
            text = format_sos_certificate(cert, system, report)
            if report.passed:
                path = out / "certificate.txt"
                path.write_text(text)
                (out / "report.txt").write_text(report.to_text())
                _status(f"certificate-found degree={deg} tier={tier} "
                        f"margin={cert.margin!r} file={path}")
                return EXIT_OK
            # a rejected candidate is no certificate at this degree
            (out / f"rejected-deg{deg}.txt").write_text(text)
            rejected[deg] = report.worst().min_value
            logger.info("degree %d: rejected by the oracle (worst %r)",
                        deg, rejected[deg])
            continue
        logger.info("degree %d: %s (%s)", deg, outcome.status, outcome.detail)
        if outcome.status == "stalled":
            failure = failure or f"degree {deg}: {outcome.detail}"
    if failure:
        _status(f"solver-failure tier={tier} detail={failure!r}")
        return EXIT_SOLVER_FAILURE
    if rejected:
        _status(f"certificate-rejected-by-oracle degrees={list(rejected)} "
                f"tier={tier} worst={min(rejected.values())!r}")
        return EXIT_NOT_FOUND
    _status(f"exhausted-degrees degrees={degrees} tier={tier}")
    return EXIT_NOT_FOUND


def cmd_verify(args, spec: ParsedSpec) -> int:
    if args.candidate is None and args.certificate is None:
        raise InputError("verify-needs-candidate-or-certificate")
    if args.r is not None and (args.certificate is not None
                               or not spec.is_conic):
        raise InputError(R_WITHOUT_CONE_CANDIDATE)
    flags = _oracle_flags(args, spec)
    n = spec.system.dimension
    if args.certificate is not None:
        kind, poly, r = read_certificate_candidate(Path(args.certificate), n)
        expected = f"{'conic' if spec.is_conic else 'sos'}-lyapunov-certificate"
        if kind != expected:
            raise SpecFileError(f"{args.certificate} is a {kind}, the spec "
                                f"needs a {expected}", None, "certificate")
    else:
        poly = parse_polynomial(args.candidate, n)
        r = args.r or 0
    out = _out_dir(args)
    if spec.is_conic:
        report = oracle.verify_conic(
            RationalLyapunovCandidate(poly, r), spec.system,
            grid_density=flags["density"], collect_samples=args.csv)
    else:
        report = oracle.verify_sos(poly, spec.system, **flags,
                                   collect_samples=args.csv)
    (out / "report.txt").write_text(report.to_text())
    if args.csv:
        (out / "report.csv").write_text(report.to_csv())
    worst = report.worst()
    _status(f"{'verified' if report.passed else 'verification-failed'} "
            f"worst-check={worst.name} worst-min={worst.min_value!r}")
    return EXIT_OK if report.passed else EXIT_NOT_FOUND


def cmd_simulate(args, spec: ParsedSpec) -> int:
    if args.r is not None and (args.candidate is None or not spec.is_conic):
        raise InputError(R_WITHOUT_CONE_CANDIDATE)
    x0_text = args.x0 or spec.options.get("x0")
    if x0_text is None:
        raise InputError("simulate-needs-x0")
    x0 = [_number(float, v, "x0") for v in x0_text.replace(",", " ").split()]
    if len(x0) != spec.system.dimension:
        raise InputError("x0-dimension-mismatch")
    T = args.T if args.T is not None \
        else _number(float, spec.options.get("T", 10.0), "T")
    dt = args.dt if args.dt is not None \
        else _number(float, spec.options.get("dt", 1e-3), "dt")
    V = None
    if args.candidate is not None:
        poly = parse_polynomial(args.candidate, spec.system.dimension)
        if spec.is_conic:
            V = RationalLyapunovCandidate(poly, args.r or 0).value
        else:
            V = poly
    traj = flow.simulate(x0, T, dt, spec.system, V=V)
    out = _out_dir(args)
    path = out / "trajectory.csv"
    with path.open("w") as stream:
        traj.write_csv(stream)
    final = traj.final_state()
    _status(f"simulated steps={len(traj) - 1} final-norm="
            f"{float(np.linalg.norm(final))!r} file={path}")
    return EXIT_OK


def cmd_partition_dump(args, spec: ParsedSpec) -> int:
    if not spec.is_conic:
        raise InputError("partition-dump-needs-cone-spec")
    _check_count("--sweeps", args.sweeps, 0)
    sections = cop_lp.initial_sections(spec.system)
    partitions = []
    for state in sections:
        part = state.partition
        for _ in range(args.sweeps):
            part = part.refine_all()
        partitions.append(part)
    lines = dump_partition_lines(partitions)
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        (_out_dir(args) / "partitions.txt").write_text(text)
    sys.stdout.write(text)
    _status(f"partition-dumped cells={len(lines)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parse error is an InputError, with the status line of any other;
    the usage line goes before it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then shared by
    every main call of the process: parse_args reads it and writes only
    the fresh namespace it returns."""
    parser = _Parser(
        prog="lyapcert",
        description="Lyapunov certificates for normal-cone constrained "
                    "dynamics (LP hierarchy on cones, SOS hierarchy on "
                    "compact semialgebraic sets)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """The spec, --out, and the oracle flags the command reads, with no
        argparse default, so that _oracle_flags tells a flag given from one
        unset."""
        p.add_argument("spec", help="system spec file")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            mode, default, _, text = ORACLE_FLAGS[flag]
            p.add_argument(flag, type=int,
                           help=f"{text}, {mode} spec (default {default})")

    p = sub.add_parser("find-lyap-cone", help="run the cone LP hierarchy")
    common(p, "--density")
    p.add_argument("--deg", type=int, help="single level: degree of h")
    p.add_argument("--r", type=int,
                   help="single level, with --deg: denominator power")
    p.add_argument("--sweeps", type=int,
                   help="sweep budget of every level (default: the spec "
                        f"schedule's, else {DEFAULT_SWEEPS})")
    p.add_argument("--dump-lp", action="store_true")
    p.set_defaults(func=cmd_find_lyap_cone)

    p = sub.add_parser("find-lyap-sos", help="run the SOS hierarchy")
    common(p, "--seed", "--samples")
    p.add_argument("--deg", type=int, help="single degree for V")
    p.add_argument("--tier", choices=("dsos", "sdp"), default="sdp")
    p.add_argument("--dump-sdpa", action="store_true")
    p.set_defaults(func=cmd_find_lyap_sos)

    p = sub.add_parser("verify", help="oracle-check a candidate")
    common(p, *ORACLE_FLAGS)
    p.add_argument("--candidate", help="polynomial text (h or V)")
    p.add_argument("--r", type=int,
                   help="denominator power of a cone --candidate")
    p.add_argument("--certificate", help="certificate file to re-verify")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="projected Euler trajectory")
    common(p)
    p.add_argument("--x0", help="start state, comma or space separated")
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--candidate", help="record this V along the trajectory")
    p.add_argument("--r", type=int,
                   help="denominator power of a cone --candidate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("partition-dump", help="dump section partitions")
    common(p)
    p.add_argument("--sweeps", type=int, default=0,
                   help="uniform refinement sweeps before dumping")
    # partitions.txt is written only when --out is given
    p.set_defaults(func=cmd_partition_dump, out=None)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("LYAPCERT_LOG", "quiet").lower()
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and the spec, and run the command.

    Bad input (an InputError, a file that cannot be read or written, or
    one that is not text) ends as status=input-error with exit 2; a
    numerical failure (a NumericalError, ArithmeticError or LinAlgError)
    as status=solver-failure with exit 3.
    """
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, parse_spec(args.spec))
    except (InputError, OSError, UnicodeDecodeError) as exc:
        _status(f"input-error detail={str(exc)!r}")
        return EXIT_USAGE
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _status(f"solver-failure detail={str(exc)!r}")
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
