"""The machine's speed: one fixed pure-Python loop.

    python3 perfbench/calibrate.py

The loop does the same work every time, so its time tracks the speed of
the machine.  `probe()` is the speed probe that run.py takes around
every timed command, in its own process; the end-to-end times are scaled
by REF_PROBE_S / probe, which turns them into reference-speed seconds.
Run as a script, this prints one JSON line with the times of REPEATS runs
of the 2,000,000-step loop, their median and the distance between the
first and third quartile as a share of the median: the machine's noise
floor.
"""

import json
import statistics
import time


def loop(n: int = 2_000_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


PROBE_STEPS = 100_000
REF_PROBE_S = 0.012     # probe time that defines one reference-speed second
REPEATS = 20            # loop runs of the noise-floor measurement


def probe() -> float:
    """Seconds for PROBE_STEPS loop steps, the median of five tries."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        loop(PROBE_STEPS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    med = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4)
    print(json.dumps({"times_s": [round(t, 4) for t in times],
                      "median_s": round(med, 4),
                      "iqr_share": round((q3 - q1) / med, 4)}))


if __name__ == "__main__":
    main()
