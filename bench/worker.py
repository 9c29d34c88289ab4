"""One fresh process of the benchmark; `run.py` starts it and reads stdout.

    worker.py setup FIELDS_JSON          import hgfq and build the fields
    worker.py verify WORKLOAD SEED [--trace F]
                                         `hgfq.cli.main` in this process,
                                         stdout sent to a counting sink

`verify` prints the captured records and then one JSON summary line.
With --trace the spans go to F when the run ends.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from tracer import Tracer
from workloads import VERIFY_SPECS


def _setup(fields: list) -> None:
    import hgfq

    for p, e in fields:
        hgfq.make_field(p, e)


class CountingSink(io.TextIOBase):
    """Stands in for stdout: keeps the text, counts bytes, and notes how
    many records existed when the first write came."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.parts: list[str] = []
        self.bytes = 0
        self.records_before_first_write: int | None = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.records_before_first_write is None and self.tracer is not None:
            self.records_before_first_write = self.tracer.reports_built()
        self.parts.append(s)
        self.bytes += len(s.encode("utf-8"))
        return len(s)


def _verify(workload: str, seed: int, tracer: Tracer | None) -> dict:
    import hgfq.cli

    spec = VERIFY_SPECS[workload](seed)
    sink = CountingSink(tracer)
    real_stdout = sys.stdout
    sys.stdout = sink
    try:
        t0 = time.perf_counter()
        code = hgfq.cli.main(spec.argv())
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
    real_stdout.write("".join(sink.parts))
    return {
        "wall_s": wall,
        "exit_code": code,
        "stdout_bytes": sink.bytes,
        "records_before_first_write": sink.records_before_first_write,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "verify"))
    parser.add_argument("args", nargs="*")
    parser.add_argument("--trace")
    ns = parser.parse_args()
    if ns.mode == "setup":
        _setup(json.loads(ns.args[0]))
        return 0
    tracer = None
    if ns.trace:
        import hgfq  # noqa: F401  (the tracer wraps the loaded modules)

        tracer = Tracer()
        tracer.install()
    summary = _verify(ns.args[0], int(ns.args[1]), tracer)
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics()
        summary["top_level_s"] = tracer.top_level_s()
        tracer.write(ns.trace)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
