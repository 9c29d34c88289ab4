"""Span tracing of the package's layers, installed from outside the package.

`install` replaces the public functions and `Field` methods named in
`README.md` with wrappers, at every place in the `hgfq` modules where they
are bound, so calls between modules go through the wrappers too.  Nothing
under `src/` changes.  Coarse calls (field builds, Jacobi kernels, series,
point counts, verifiers, records) become spans: a name, a layer, a start,
an end and the span that was open when it began.  Calls made millions of
times (scalar field arithmetic and the cached Jacobi and binomial lookups)
are only counted; their time lands in the self time of the span that called
them.  Spans stay in memory until `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time

LAYERS = ("field", "charsums", "hgf", "curves", "verifier", "report", "cli")
SCALAR_OPS = ("add", "sub", "mul", "div", "inv", "pow")
VERIFY_KEYS = {
    "verify_ono": "ono",
    "verify_main_square": "main",
    "verify_2f1_trace": "trace",
    "verify_lambda_third": "lambda_third",
    "verify_mccarthy": "mccarthy",
    "verify_3f2_at_4": "3f2at4",
    "verify_2f1_specials": "specials",
    "verify_corollary_c3": "c3",
    "verify_corollary_chi4": "chi4",
    "verify_corollary_lcm": "lcm",
    "verify_charsum_lemmas": "charsum_lemmas",
}
COUNTERS = ("brute_force_count", "character_sum_count", "weierstrass_count_l3")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("field.build_s", "s"),
    ("field.builds", "count"),
    ("field.elements", "count"),
    ("field.scalar_ops", "count"),
    ("charsums.kernel_calls", "count"),
    ("charsums.kernel_elements", "count"),
    ("charsums.kernel_s", "s"),
    ("charsums.jacobi_lookups", "count"),
    ("charsums.jacobi_hit_ratio", "ratio"),
    ("charsums.binom_lookups", "count"),
    ("charsums.self_s", "s"),
    ("hgf.series_calls", "count"),
    ("hgf.series_s", "s"),
    ("hgf.series_self_s", "s"),
    ("hgf.terms", "count"),
    ("hgf.cold_call_ms_p50", "ms"),
    ("hgf.warm_call_ms_p50", "ms"),
    ("hgf.int_residual_max", "1"),
    ("curves.count_calls", "count"),
    ("curves.count_useful_ratio", "ratio"),
    ("curves.count_s", "s"),
    ("curves.self_s", "s"),
    ("verifier.self_s", "s"),
    *((f"verifier.{key}_s", "s") for key in VERIFY_KEYS.values()),
    ("report.build_s", "s"),
    ("report.serialize_s", "s"),
    ("report.self_s", "s"),
    ("report.stdout_bytes", "bytes"),
    ("cli.records_before_first_write", "count"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _field_q(args, kwargs) -> int:
    # Field.__init__(self, p, e=1, q_cap=...)
    e = args[2] if len(args) > 2 else kwargs.get("e", 1)
    return args[1] ** e


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, info]
        self.stack: list[int] = []
        self.scalar_calls = itertools.count()
        self.jacobi_calls = itertools.count()
        self.binom_calls = itertools.count()
        self.jacobi_depth = 0

    # ------------------------------------------------------------------
    # wrappers

    def span(self, fn, name: str, layer: str, info=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            data = info(args, kwargs) if info else None
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, data]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    @staticmethod
    def counted(fn, counter):
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _jacobi_lookup(self, fn):
        tick = self.jacobi_calls.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            self.jacobi_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.jacobi_depth -= 1

        return wrapper

    # ------------------------------------------------------------------

    def install(self) -> None:
        import hgfq.cli as cli
        import hgfq.curves as curves
        import hgfq.hgf as hgf
        import hgfq.report as report
        import hgfq.verifier as verifier
        from hgfq.field import Field

        F = Field
        F.__init__ = self.span(F.__init__, "build", "field", lambda a, k: _field_q(a, k))
        for op in SCALAR_OPS:
            setattr(F, op, self.counted(getattr(F, op), self.scalar_calls))
        F.jacobi_counts = self.span(
            F.jacobi_counts, "kernel", "charsums", lambda a, k: (a[0].q, self.jacobi_depth > 0)
        )
        F.jacobi_c = self._jacobi_lookup(F.jacobi_c)
        F.binom_c = self.counted(F.binom_c, self.binom_calls)
        F.gauss_c = self.span(F.gauss_c, "gauss_c", "charsums")

        _rebind(hgf.series_value, self.span(hgf.series_value, "series", "hgf", lambda a, k: (a[0].q, len(a[1]))))
        _rebind(hgf.evans_F, self.span(hgf.evans_F, "series", "hgf", lambda a, k: (a[0].field.q, 2)))

        def curve_key(a, k):
            return (a[0].q, a[1].l, a[1].lam)

        for name in COUNTERS:
            _rebind(getattr(curves, name), self.span(getattr(curves, name), name, "curves", curve_key))
        _rebind(curves.curve_values, self.span(curves.curve_values, "curve_values", "curves"))

        for name in VERIFY_KEYS:
            _rebind(getattr(verifier, name), self.span(getattr(verifier, name), name, "verifier"))
        _rebind(verifier.sweep, self.span(verifier.sweep, "sweep", "verifier"))

        _rebind(report.build_report, self.span(report.build_report, "build", "report"))
        _rebind(report.report_to_csv_row, self.span(report.report_to_csv_row, "serialize", "report"))
        report.VerificationReport.to_json = self.span(
            report.VerificationReport.to_json, "serialize", "report"
        )
        _rebind(cli.main, self.span(cli.main, "main", "cli"))

    def top_level_s(self) -> float:
        """Time inside spans that no other span encloses."""
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def reports_built(self) -> int:
        return sum(1 for s in self.spans if s[1] == "report" and s[0] == "build")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "info"],
                    "spans": self.spans,
                },
                fh,
                default=str,
            )

    # ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters (see README.md)."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            if s[1] in self_time:
                self_time[s[1]] += dur[i] - child[i]

        def total(pred) -> float:
            return sum(dur[i] for i, s in enumerate(spans) if pred(s))

        def outer(layer):
            return lambda s: s[1] == layer and (s[4] < 0 or spans[s[4]][1] != layer)

        def named(layer, *names):
            return lambda s: s[1] == layer and s[0] in names

        kernels = [i for i, s in enumerate(spans) if s[1] == "charsums" and s[0] == "kernel"]
        builds = [s for s in spans if s[1] == "field" and s[0] == "build"]
        # A series call is an outermost hgf span; it is cold when a kernel
        # span lies anywhere below it.  Parents precede their children.
        top_hgf = [-1] * len(spans)
        for i, s in enumerate(spans):
            up = top_hgf[s[4]] if s[4] >= 0 else -1
            top_hgf[i] = up if up >= 0 else (i if s[1] == "hgf" else -1)
        series = [i for i, s in enumerate(spans) if top_hgf[i] == i]
        cold = {top_hgf[i] for i in kernels}
        cold_ms = [dur[i] * 1e3 for i in series if i in cold]
        warm_ms = [dur[i] * 1e3 for i in series if i not in cold]
        counters = [s for s in spans if s[1] == "curves" and s[0] in COUNTERS]
        curve_calls = [s for s in spans if s[1] == "curves"]
        jacobi_lookups = next(self.jacobi_calls)
        kernel_misses = sum(1 for i in kernels if spans[i][5][1])

        out = {
            "field.build_s": total(named("field", "build")),
            "field.builds": len(builds),
            "field.elements": sum(s[5] for s in builds),
            "field.scalar_ops": next(self.scalar_calls),
            "charsums.kernel_calls": len(kernels),
            "charsums.kernel_elements": sum(spans[i][5][0] - 2 for i in kernels),
            "charsums.kernel_s": total(named("charsums", "kernel")),
            "charsums.jacobi_lookups": jacobi_lookups,
            "charsums.jacobi_hit_ratio": (
                1.0 - kernel_misses / jacobi_lookups if jacobi_lookups else 0.0
            ),
            "charsums.binom_lookups": next(self.binom_calls),
            "charsums.self_s": self_time["charsums"],
            "hgf.series_calls": len(series),
            "hgf.series_s": sum(dur[i] for i in series),
            "hgf.series_self_s": self_time["hgf"],
            "hgf.terms": sum((spans[i][5][0] - 1) * spans[i][5][1] for i in series),
            "hgf.cold_call_ms_p50": statistics.median(cold_ms) if cold_ms else 0.0,
            "hgf.warm_call_ms_p50": statistics.median(warm_ms) if warm_ms else 0.0,
            "curves.count_calls": len(curve_calls),
            "curves.count_useful_ratio": (
                len({s[5] for s in counters}) / len(counters) if counters else 0.0
            ),
            "curves.count_s": total(outer("curves")),
            "curves.self_s": self_time["curves"],
            "verifier.self_s": self_time["verifier"],
        }
        for name, key in VERIFY_KEYS.items():
            out[f"verifier.{key}_s"] = total(named("verifier", name))
        out.update(
            {
                "report.build_s": total(named("report", "build")),
                "report.serialize_s": total(named("report", "serialize")),
                "report.self_s": self_time["report"],
                "cli.self_s": self_time["cli"],
            }
        )
        return out


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` wherever an hgfq module binds it."""
    for name, module in list(sys.modules.items()):
        if name != "hgfq" and not name.startswith("hgfq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
