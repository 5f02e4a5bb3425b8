"""Benchmark worker: set up as a CLI user would, then run whole rounds.

Prints "ready" once set-up is done (interpreter start, `import
lyapcert.cli`, input generation, spec parsing, one warm-up call), then,
unless --setup-only, runs rounds of the workload's sessions through
`lyapcert.cli.main(argv)` in this process and prints one JSON line with
the exit code, status line, output directory and wall time of every
command.  It checks nothing itself: run.py checks the outputs in another
process, so the checker's imports and memory stay out of this one.

Speed probes run in run.py's process, not in this one, so that nothing
this interpreter does (a thread, a trace hook, its allocator) can slow
the probe along with the commands.  Before and after each command the
session prints "probe" and waits, idle, until run.py answers on standard
input with the probe seconds over the command and the seconds for which
it stopped this process to probe inside the command.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from lyapcert import cli, cop_lp


def _argv(cmd: workloads.Command, spec: Path, out: Path,
          cert: dict | None) -> list[str] | None:
    """The command line; None when it needs a certificate and there is none."""
    if cmd.kind != "find" and cert is None:
        return None
    argv = [cmd.argv[0], str(spec), "--out", str(out)]
    argv += [a.replace("{cert}", cert["path"]) if cert else a
             for a in cmd.argv[1:]]
    if cmd.kind == "verify-negative":
        argv.append("--candidate=" + workloads.scaled(
            cert["text"], Fraction(cmd.factor)))
    elif cmd.kind == "simulate":
        argv.append("--candidate=" + cert["text"])
    return argv


def _certificate(path: Path) -> dict | None:
    if not path.exists():
        return None
    for line in path.read_text().splitlines():
        if line.startswith(("h: ", "V: ")):
            return {"path": str(path), "text": line[3:]}
    return None


def probe() -> dict:
    """The speed since the last probe, measured by run.py (see run.Speed)."""
    print("probe", flush=True)
    return json.loads(sys.stdin.readline())


def run_round(sessions, specs: dict[str, Path], out_root: Path,
              tracer=None) -> list[dict]:
    """One pass over every command of every session, in order.

    Before and after each command the session asks run.py for the
    machine's speed over it, so that its time can be read against that.
    """
    records = []
    probe()
    for s in sessions:
        cert = None
        for i, cmd in enumerate(s.commands):
            out = out_root / s.name / f"{i}-{cmd.kind}"
            argv = _argv(cmd, specs[s.name], out, cert)
            rec = {"session": s.name, "index": i, "kind": cmd.kind,
                   "out": str(out), "argv": argv}
            if argv is None:
                rec.update(exit=None, status="skipped: no certificate",
                           seconds=0.0, probe_s=None)
                records.append(rec)
                continue
            err = io.StringIO()
            call = cli.main
            if tracer is not None:
                call = tracer.span(f"cli.{cmd.kind.split('-')[0]}", cli.main)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = call(argv)
            except Exception as exc:  # a crashing command fails; go on
                code = None
                err.write(f"status=crash {type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - start
            speed = probe()
            rec.update(seconds=elapsed - speed["paused_s"],
                       probe_s=speed["probe_s"])
            status = [ln for ln in err.getvalue().splitlines()
                      if ln.startswith("status=")]
            rec.update(exit=code, status=status[-1][7:] if status else "")
            if cmd.kind == "find":
                cert = _certificate(out / "certificate.txt")
            records.append(rec)
    return records


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    run_dir = Path(args.run_dir)
    sessions = workloads.build(args.workload, args.seed)
    specs = {}
    for s in sessions:
        specs[s.name] = run_dir / f"{s.name}.spec"
        specs[s.name].write_text(s.spec_text)
    parsed = [cli.parse_spec(specs[s.name]) for s in sessions]
    # The first cone command of a process imports scipy.spatial (lazily,
    # inside initial_sections); every CLI user pays it, so it is set-up.
    cone = next((ps for ps in parsed if ps.is_conic), None)
    if cone is not None:
        cop_lp.initial_sections(cone.system)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rounds = []
    tracer = None
    start = time.perf_counter()
    if args.trace:
        # One untraced round first: the traced rounds are compared with it
        # to give the tracing overhead.
        rounds.append(run_round(sessions, specs, run_dir / "r0"))
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        start = time.perf_counter()
    while len(rounds) < 1 + args.trace \
            or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(sessions, specs, run_dir / f"r{len(rounds)}",
                                tracer))
    result = {"rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0}
    if tracer is not None:
        tracer.restore()
        total, own = tracer.totals()
        result["trace"] = {"total": total, "self": own,
                           "counts": dict(tracer.counts),
                           "spans": len(tracer.spans)}
        tracer.write(run_dir / "spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
