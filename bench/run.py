"""Benchmark of hgfq: `hgfq verify` sweeps on many small fields and on one large field.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the package is imported from its `src/` directory,
with no install step.  With --trace 0 the workload is repeated in fresh
processes, one at a time, until S seconds have passed (at least once), and
the end-to-end metrics are medians over those rounds.  With --trace 1 the
workload runs once untraced and once traced, in-process in fresh workers,
and the per-layer metrics come from the traced run.  Every output is
checked against `oracle.py`.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, VERIFY_SPECS  # noqa: E402

# Set-up is a fraction of a second, mostly interpreter start and imports,
# so its median is taken over several fresh processes.
SETUP_REPEATS = 9


class Round:
    """One finished child process: its stdout, timings and peak memory."""

    def __init__(self, argv: list[str], name: str):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        err_path = RESULTS / f"{name}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            chunks = []
            self.first_output_s = None
            while True:
                chunk = proc.stdout.read1(1 << 16)
                if not chunk:
                    break
                if self.first_output_s is None:
                    self.first_output_s = time.perf_counter() - start
                chunks.append(chunk)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if self.first_output_s is None:
            self.first_output_s = self.wall_s
        self.exit_code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.stdout = b"".join(chunks)
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        err_path.unlink()

    def summary(self) -> dict:
        """The worker's closing JSON line."""
        last = self.stdout.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        return json.loads(last)

    def body(self) -> str:
        """Everything the worker printed before its closing line."""
        text = self.stdout.decode("utf-8")
        return text[: text.rstrip("\n").rfind("\n") + 1]


def worker(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def _median(values) -> float:
    return float(statistics.median(values))


def _setup_s(fields) -> float:
    argv = worker("setup", json.dumps(fields))
    times = []
    for i in range(SETUP_REPEATS):
        r = Round(argv, f"setup-{i}")
        if r.exit_code != 0:
            raise RuntimeError(f"set-up failed:\n{r.stderr}")
        times.append(r.wall_s)
    return _median(times)


def _rounds(argv: list[str], name: str, seconds: float) -> list[Round]:
    """Whole rounds, one after another, until `seconds` have passed."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(Round(argv, f"{name}-{len(rounds)}"))
    return rounds


def _end_to_end(rounds, setup_s) -> dict:
    return {
        "wall_s": {"value": _median(r.wall_s for r in rounds), "unit": "s"},
        "first_record_s": {"value": _median(r.first_output_s for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": _median(r.peak_rss_mb for r in rounds), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


# ----------------------------------------------------------------------
# timed runs


def timed_verify(workload: str, seed: int, seconds: float) -> dict:
    spec = VERIFY_SPECS[workload](seed)
    setup_s = _setup_s(spec.fields())
    rounds = _rounds([sys.executable, "-m", "hgfq", *spec.argv()], workload, seconds)

    counts = checks.CountOracle()
    expected = spec.expected_records()
    problems, failed = [], 0
    first = rounds[0]
    for i, r in enumerate(rounds):
        if r.exit_code not in (0, 1):
            failed += expected
            problems.append(f"round {i}: exit {r.exit_code}: {r.stderr.strip()[-500:]}")
        elif r.stdout != first.stdout:
            problems.append(f"round {i}: stdout differs from round 0 for the same seed")
    if first.exit_code in (0, 1):
        problems += checks.check_verify_output(spec, first.stdout.decode(), first.exit_code, counts)
    return {
        "problems": problems,
        "attempted": expected * len(rounds),
        "failed": failed,
        "metrics": _end_to_end(rounds, setup_s),
    }


# ----------------------------------------------------------------------
# traced runs


def traced(workload: str, seed: int) -> dict:
    spec = VERIFY_SPECS[workload](seed)
    expected = spec.expected_records()
    base = ["verify", workload, str(seed)]
    trace_path = RESULTS / f"spans-{workload}-{seed}.json"
    untraced = Round(worker(*base), f"untraced-{workload}")
    traced_run = Round(worker(*base, "--trace", str(trace_path)), f"traced-{workload}")

    problems, failed = [], 0
    counts = checks.CountOracle()
    summaries = []
    for label, r in (("untraced", untraced), ("traced", traced_run)):
        if r.exit_code != 0:
            failed += expected
            problems.append(f"{label} run: exit {r.exit_code}: {r.stderr.strip()[-500:]}")
            continue
        s = r.summary()
        summaries.append(s)
        found = checks.check_verify_output(spec, r.body(), s["exit_code"], counts)
        problems += [f"{label} run: {p}" for p in found]
    metrics = {}
    if len(summaries) == 2:
        plain, tr = summaries
        layers = dict(tr["layers"])
        layers["hgf.int_residual_max"] = checks.ono_residual_max(traced_run.body())
        layers["report.stdout_bytes"] = tr["stdout_bytes"]
        layers["cli.records_before_first_write"] = tr["records_before_first_write"] or 0
        layers["trace.wall_s"] = tr["wall_s"]
        layers["trace.untraced_wall_s"] = plain["wall_s"]
        layers["trace.overhead_s"] = tr["wall_s"] - plain["wall_s"]
        layers["trace.unattributed_s"] = tr["wall_s"] - tr["top_level_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    return {
        "problems": problems,
        "attempted": 2 * expected,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(VERIFY_SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hgfq" / "__init__.py").is_file():
        print(f"error: no hgfq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = timed_verify(args.workload, args.seed, args.seconds)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not result["problems"] and len(result["metrics"]) > 0
    tag = "traced" if args.trace else "timed"
    out = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    (RESULTS / f"result-{tag}-{args.workload}-{args.seed}.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
