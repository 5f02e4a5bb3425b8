"""Run one workload of the lyapcert benchmark and print its metrics.

    python3 perfbench/run.py --workload cone-refine --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cone-refine", "sos-sdp", "lp-solve")
SETUP_PROBES = 3          # set-ups timed in their own interpreters
DEADLINE_S = 170.0        # the whole run, set-ups and checks included
PROBE_EVERY_S = 1.0       # a speed probe per second inside long commands

LAYER_TIMES = {           # metric -> span name; wall time summed over calls
    "cop_lp.assemble_lp_s": "cop_lp.assemble_lp",
    "cones.initial_sections_s": "cones.initial_sections",
    "cones.refine_cells_s": "cones.refine_cells",
    "linprog.solve_s": "linprog.solve",
    "sdpsolve.solve_sdp_s": "sdpsolve.solve_sdp",
    "sos_cert.assemble_s": "sos_cert.assemble",
    "oracle.verify_sos_s": "oracle.verify_sos",
    "oracle.verify_conic_s": "oracle.verify_conic",
    "tangency.nnls_s": "tangency.nnls",
    "flow.step_s": "flow.step",
    "flow.project_s": "flow.project",
}
LAYER_SELF_TIMES = {      # time inside a command that no wrapped layer covers
    "cli.find_self_s": "cli.find",
    "cli.verify_self_s": "cli.verify",
    "cli.simulate_self_s": "cli.simulate",
}
LAYER_COUNTS = ("cop_lp.rows_assembled", "poly.tensor_evals",
                "cones.cells_final", "cop_lp.sweeps", "linprog.calls",
                "linprog.pivots", "linprog.not_optimal", "sdpsolve.calls",
                "sdpsolve.iterations", "oracle.samples",
                "tangency.nnls_calls", "flow.steps")


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with two, the DSOS certificate of cusp_box changes
    # (margin -1.74e-19 in place of 0.0) and pivot paths can move.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", LYAPCERT_LOG="quiet",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Speed:
    """The machine's speed over each command of a session.

    Probes run here, in run.py's process and on the session's CPU, while
    the session waits for the reply or is stopped, so nothing the session's
    interpreter does can slow a probe.  A command longer than PROBE_EVERY_S
    is stopped once a second for one more probe: the speed drifts within
    seconds, and the probes at its two ends alone miss that.
    """

    def __init__(self):
        self.last = None

    def _start(self, probe: float) -> None:
        self.last = probe
        self.begin = self.mark = time.perf_counter()
        self.weighted = self.paused = 0.0

    def _segment(self, probe: float, end: float) -> None:
        self.weighted += (end - self.mark) / ((self.last + probe) / 2)
        self.last = probe

    def pause_and_probe(self, pid: int) -> None:
        if self.last is None:        # no command has started yet
            return
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        try:
            probe = calibrate.probe()
        finally:
            os.kill(pid, signal.SIGCONT)
        self._segment(probe, start)
        self.mark = time.perf_counter()
        self.paused += self.mark - start

    def reply(self) -> dict:
        """The answer to a probe request: the time-weighted probe seconds of
        the interval since the last answer, and how long it was stopped."""
        end = time.perf_counter()
        probe = calibrate.probe()
        speed = {"probe_s": probe, "paused_s": 0.0}
        if self.last is not None:
            self._segment(probe, end)
            active = end - self.begin - self.paused
            if self.weighted > 0:
                speed["probe_s"] = active / self.weighted
            speed["paused_s"] = self.paused
        self._start(probe)
        return speed


class Worker:
    """perfbench/session.py in a fresh interpreter, timed until it is ready."""

    def __init__(self, args, run_dir: Path, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(HERE / "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", str(run_dir)]
        if setup_only:
            cmd.append("--setup-only")
        # Traced runs report plain wall seconds per layer: never stop them.
        self.probe_every = None if args.trace else PROBE_EVERY_S
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT,
                                     env=child_env(), text=True)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                      self.proc.kill)
        self._timer.start()
        ready = self.proc.stdout.readline().strip()
        self.setup_s = time.perf_counter() - start
        if ready != "ready":
            self.finish()
            raise RuntimeError("benchmark session failed during set-up")

    def _read(self, lines: queue.Queue) -> None:
        for line in iter(self.proc.stdout.readline, ""):
            lines.put(line)
        lines.put(None)

    def finish(self) -> str:
        """Answer the session's probe requests until it ends; its output."""
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(target=self._read, args=(lines,))
        reader.start()
        speed, out = Speed(), []
        try:
            try:
                while True:
                    try:
                        line = lines.get(timeout=self.probe_every)
                    except queue.Empty:      # inside a long command
                        speed.pause_and_probe(self.proc.pid)
                        continue
                    if line is None:
                        break
                    if line.strip() != "probe":
                        out.append(line)
                        continue
                    self.proc.stdin.write(json.dumps(speed.reply()) + "\n")
                    self.proc.stdin.flush()
            except (BrokenPipeError, ProcessLookupError):
                pass                 # the session died; its code says how
            code = self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            reader.join()
        if code != 0:
            raise RuntimeError(f"benchmark session exited with code {code}")
        return "".join(out)


def check_records(args, rounds) -> tuple[int, int, list[str]]:
    """Check every command's output; (attempted, failed, unexpected)."""
    import checks
    import workloads
    checker = checks.Checks(workloads.build(args.workload, args.seed))
    attempted = failed = 0
    unexpected = []
    for number, records in enumerate(rounds):
        for rec in records:
            problems, expected = checker.check(rec)
            attempted += 1
            failed += bool(problems)
            if problems and not expected:
                unexpected.append(f"round {number} {rec['session']} "
                                  f"{rec['kind']}: {'; '.join(problems)}")
    return attempted, failed, unexpected


def reference_seconds(seconds: float, probe_s: float) -> float:
    """Wall seconds scaled to the speed at which a probe takes REF_PROBE_S.

    probe_s is the probe time over the timed interval (see Speed); the
    machine's speed drifts by up to a factor of two over minutes, and this
    removes that drift from the comparison.
    """
    return seconds * calibrate.REF_PROBE_S / probe_s


def round_seconds(records, kinds=None, scale=True) -> float:
    return sum(reference_seconds(r["seconds"], r["probe_s"]) if scale
               else r["seconds"] for r in records
               if r["seconds"] and (kinds is None or r["kind"] in kinds))


def e2e_metrics(rounds, setups, peak_rss_mb) -> dict:
    kinds = {"find_s": ("find",), "verify_s": ("verify", "verify-negative"),
             "simulate_s": ("simulate",)}
    metrics = {"setup_s": {"value": statistics.median(
        reference_seconds(s, p) for s, p in setups), "unit": "s"}}
    for name, members in kinds.items():
        metrics[name] = {"value": statistics.median(
            round_seconds(records, members) for records in rounds),
            "unit": "s"}
        raw = statistics.median(round_seconds(records, members, scale=False)
                                for records in rounds)
        print(f"{name}: {raw:.4f} wall seconds", file=sys.stderr)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


def layer_metrics(rounds, trace) -> dict:
    """Per traced round: the first round ran untraced for the overhead."""
    traced = len(rounds) - 1
    metrics = {}
    for name, span in LAYER_TIMES.items():
        metrics[name] = {"value": trace["total"].get(span, 0.0) / traced,
                         "unit": "s"}
    for name, span in LAYER_SELF_TIMES.items():
        metrics[name] = {"value": trace["self"].get(span, 0.0) / traced,
                         "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": trace["counts"].get(name, 0) / traced,
                         "unit": "count"}
    walls = [round_seconds(records) for records in rounds]
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (statistics.median(walls[1:]) / walls[0] - 1.0),
        "unit": "%"}
    metrics["trace.spans"] = {"value": trace["spans"] / traced,
                              "unit": "count"}
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "lyapcert" / "cli.py").is_file():
        print(f"run.py: no lyapcert sources under {ROOT / 'src'}; run it from "
              "the root of a lyapcert checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        # The session and the probes share one CPU: the speed of the two
        # CPUs drifts apart, so a probe on the other one misreads it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setups = []                  # (seconds, probe seconds around them)
        for _ in range(SETUP_PROBES):
            before = calibrate.probe()
            sample = Worker(args, run_dir, True, deadline)
            sample.finish()
            setups.append((sample.setup_s,
                           statistics.fmean([before, calibrate.probe()])))
        worker = Worker(args, run_dir, False, deadline)
        result = json.loads(worker.finish().strip().splitlines()[-1])
        rounds = result["rounds"]
        attempted, failed, unexpected = check_records(args, rounds)
        if args.trace:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            name = f"{args.workload}-seed{args.seed}"
            shutil.move(run_dir / "spans.json", traces / f"{name}-spans.json")
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(rounds, result["trace"])
        with open(HERE / "traces" / f"{name}.json", "w") as fh:
            json.dump({"metrics": metrics, "total": result["trace"]["total"],
                       "self": result["trace"]["self"]}, fh, indent=1)
    else:
        metrics = e2e_metrics(rounds, setups, result["peak_rss_mb"])
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
