"""Command-line front end: field inspection, point counting, series
evaluation, and identity sweeps.

Exit codes: 0 clean, 1 at least one identity failure (or a count
cross-check mismatch), 2 usage, configuration, or domain error, and 141
(128 + SIGPIPE, with no error line) when the reader closes stdout early.
A sweep streams its records to stdout field by field, in increasing q,
sorted within each field, and flushes stdout as each catalog row of a
field ends; the pass/fail/skip summary goes to stderr so that stdout
stays machine-parseable.  The configuration and the grid are checked before
anything is written; an error in a later row leaves the finished rows'
records on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from math import isfinite

from .characters import parse_character
from .curves import CurveSpec, count_points
from .errors import HgfqError
from .field import DEFAULT_Q_CAP, make_field
from .hgf import series_value
from .report import csv_header, report_to_csv_row
from .verifier import THEOREM_KEYS, SweepConfig, row_blocks


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def _prime_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc
    return lo, hi


def _or(value, default):
    """An explicit flag value, even 0, over the default."""
    return default if value is None else value


def _field(args: argparse.Namespace):
    return make_field(args.p, _or(args.e, 1), _or(args.q_cap, DEFAULT_Q_CAP))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _load_config(path: str, keys: set[str]) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored.  A key
    outside `keys` is an error, so a misspelt key is not silently dropped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            name = key.strip().replace("-", "_")
            if name not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            out[name] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, table: dict[str, tuple[str, object]]) -> None:
    """Fill unset argument slots from the config file; flags take priority."""
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config, {key for key, _ in table.values()})
    for dest, (key, parse) in table.items():
        if getattr(args, dest, None) is None and key in cfg:
            setattr(args, dest, parse(cfg[key]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgfq",
        description="Character sums, hypergeometric series over F_q, and "
        "point counts on y^l = (x-1)(x^2+lambda), with identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")

    fi = sub.add_parser("fieldinfo", parents=[common], help="describe a finite field")
    fi.add_argument("--p", type=int)
    fi.add_argument("--e", type=int)
    fi.add_argument("--q-cap", dest="q_cap", type=int)

    ct = sub.add_parser("count", parents=[common], help="count points on one curve")
    ct.add_argument("--p", type=int)
    ct.add_argument("--e", type=int)
    ct.add_argument("--l", type=int)
    ct.add_argument("--lambda", dest="lam", type=_fraction)
    ct.add_argument("--method", choices=("brute", "charsum", "both"))
    ct.add_argument("--q-cap", dest="q_cap", type=int)

    hg = sub.add_parser("hgf", parents=[common], help="evaluate a hypergeometric series")
    hg.add_argument("--p", type=int)
    hg.add_argument("--e", type=int)
    hg.add_argument("--top", help="comma list of character specs (eps, phi, chi:<k>, ord<l>, ^j)")
    hg.add_argument("--bottom", help="comma list of character specs")
    hg.add_argument("--x", type=int, help="argument as an element encoding")
    hg.add_argument("--tolerance", type=float)
    hg.add_argument("--q-cap", dest="q_cap", type=int)

    vf = sub.add_parser("verify", parents=[common], help="sweep identities over a grid")
    vf.add_argument(
        "--theorem",
        type=_str_list,
        help=f"comma list of theorem keys ({', '.join(THEOREM_KEYS)}), or all",
    )
    vf.add_argument("--primes", type=_prime_range, help="prime range LO:HI")
    vf.add_argument("--degrees", type=_int_list, help="comma list of extension degrees")
    vf.add_argument("--l", dest="l_values", type=_int_list, help="comma list of exponents l")
    vf.add_argument("--lambda", dest="lambdas", type=_fraction_list, help="comma list of rationals")
    vf.add_argument("--tolerance", type=float)
    vf.add_argument("--format", dest="output_format", choices=("json", "csv"))
    vf.add_argument("--q-cap", dest="q_cap", type=int)
    return parser


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required argument(s): {', '.join('--' + n for n in missing)}")


def _cmd_fieldinfo(args: argparse.Namespace) -> int:
    _merge_config(args, {"p": ("p", int), "e": ("e", int), "q_cap": ("q_cap", int)})
    _require(args, ["p"])
    f = _field(args)
    orders = sorted(d for d in range(1, f.m + 1) if f.m % d == 0)
    info = {
        "p": f.p,
        "e": f.e,
        "q": f.q,
        "modulus": f.modulus_str(),
        "generator": f.generator,
        "character_group": {"order": f.m, "cyclic": True, "character_orders": orders},
    }
    print(json.dumps(info))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    _merge_config(
        args,
        {
            "p": ("p", int),
            "e": ("e", int),
            "l": ("l", int),
            "lam": ("lambda", _fraction),
            "method": ("method", str),
            "q_cap": ("q_cap", int),
        },
    )
    _require(args, ["p", "l"])
    if args.lam is None:
        raise ValueError("missing required argument(s): --lambda")
    f = _field(args)
    curve = CurveSpec(args.l, args.lam)
    method = args.method or "brute"
    try:
        pc = count_points(f, curve, method)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "q": f.q,
                "affine": pc.affine,
                "projective": pc.projective,
                "a_q": pc.a_q,
                "method": method,
            }
        )
    )
    return 0


def _cmd_hgf(args: argparse.Namespace) -> int:
    _merge_config(
        args,
        {
            "p": ("p", int),
            "e": ("e", int),
            "top": ("top", str),
            "bottom": ("bottom", str),
            "x": ("x", int),
            "tolerance": ("tolerance", float),
            "q_cap": ("q_cap", int),
        },
    )
    _require(args, ["p", "top", "bottom", "x"])
    tol = _or(args.tolerance, 1e-6)
    if not (tol >= 0 and isfinite(tol)):
        raise ValueError(f"tolerance must be finite and not negative, got {tol}")
    f = _field(args)
    tops = [parse_character(f, spec).index for spec in args.top.split(",")]
    bottoms = [parse_character(f, spec).index for spec in args.bottom.split(",")]
    value = series_value(f, tops, bottoms, args.x)
    # A value is reported exact when q^2 times it lies within tol of a real
    # integer; tol scales the q^2 multiple, not the value, since a bound of
    # tol * q^2 >= 1/2 would accept every real value.
    q2 = f.q * f.q
    scaled = value * q2
    exact = None
    if abs(scaled.real - round(scaled.real)) <= tol and abs(scaled.imag) <= tol:
        exact = str(Fraction(round(scaled.real), q2))
    print(json.dumps({"q": f.q, "re": value.real, "im": value.imag, "exact": exact}))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _merge_config(
        args,
        {
            "theorem": ("theorem", _str_list),
            "primes": ("primes", _prime_range),
            "degrees": ("degrees", _int_list),
            "l_values": ("l", _int_list),
            "lambdas": ("lambda", _fraction_list),
            "tolerance": ("tolerance", float),
            "output_format": ("format", str),
            "q_cap": ("q_cap", int),
        },
    )
    defaults = SweepConfig()
    primes = _or(args.primes, (defaults.prime_min, defaults.prime_max))
    config = SweepConfig(
        prime_min=primes[0],
        prime_max=primes[1],
        degrees=_or(args.degrees, defaults.degrees),
        l_values=_or(args.l_values, defaults.l_values),
        lambdas=_or(args.lambdas, defaults.lambdas),
        theorems=_or(args.theorem, defaults.theorems),
        tolerance=_or(args.tolerance, defaults.tolerance),
        q_cap=_or(args.q_cap, defaults.q_cap),
        output_format=_or(args.output_format, defaults.output_format),
    )
    blocks = row_blocks(config)  # a grid error raises here, before any output
    csv_out = config.output_format == "csv"
    if csv_out:
        print(csv_header())
    counts = Counter()
    for block in blocks:
        for r in block:
            print(report_to_csv_row(r) if csv_out else r.to_json())
            counts[r.status] += 1
        sys.stdout.flush()
    print(
        f"# pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}",
        file=sys.stderr,
    )
    return 1 if counts["fail"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fieldinfo": _cmd_fieldinfo,
        "count": _cmd_count,
        "hgf": _cmd_hgf,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout (`hgfq verify | head`).  What is still
        # buffered goes to the null device, so the flush at exit is quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (HgfqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
