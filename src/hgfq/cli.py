"""Command-line front end: field inspection, point counting, series
evaluation, and identity sweeps.

`count` reads the curve's points off `curves.character_sum_count`, the
count the sweep uses; there is no second counting path to choose.
Exit codes: 0 clean, 1 at least one identity failure, 2 usage,
configuration, or domain error, and 141 (128 + SIGPIPE, with no error
line) when the reader closes stdout early.
A sweep streams its records to stdout field by field, in increasing q,
sorted within each field, and flushes stdout as each catalog row of a
field ends; the pass/fail/skip summary goes to stderr so that stdout
stays machine-parseable.  The configuration and the grid are checked before
anything is written; an error in a later row leaves the finished rows'
records on stdout.  Both numeric bounds are fixed, not options: a record's
relative bound is report.RELATIVE_TOLERANCE, and `hgf` reports a value as
exact when q^2 times it lies within EXACT_TOLERANCE of an integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from .characters import parse_character
from .curves import CurveSpec, character_sum_count
from .errors import HgfqError
from .field import make_field
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


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Read on its own before the full parse, so that the file's lines can become
# flags; with exit_on_error off, a --config without a path is left to the full parse.
_CONFIG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG.add_argument("--config", help="flat key=value config file; flags override it")


def _config_tokens(argv: list[str], command: argparse.ArgumentParser) -> list[str]:
    """One `--key=value` token per line of the `--config` file named in
    `command`'s arguments `argv`, or none.  The file is flat key=value lines;
    blank lines and # comments are ignored.  A key must be one of `command`'s
    own long flags without the dashes (`_` and `-` alike), so a misspelt key
    is an error, not a silently dropped line, and so is an abbreviation."""
    try:
        path = _CONFIG.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return []
    if path is None:
        return []
    flags = {s for s in command._option_string_actions if s.startswith("--")}
    flags -= {"--config", "--help"}
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in flags:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            tokens.append(f"{flag}={value.strip()}")
    return tokens


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hgfq",
        description="Character sums, hypergeometric series over F_q, and "
        "point counts on y^l = (x-1)(x^2+lambda), with identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--p", type=int, required=True)
    field.add_argument("--e", type=int, default=1)

    fi = sub.add_parser("fieldinfo", parents=[_CONFIG, field], help="describe a finite field")
    fi.set_defaults(handler=_cmd_fieldinfo)

    ct = sub.add_parser("count", parents=[_CONFIG, field], help="count points on one curve")
    ct.add_argument("--l", type=int, required=True)
    ct.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    ct.set_defaults(handler=_cmd_count)

    hg = sub.add_parser("hgf", parents=[_CONFIG, field], help="evaluate a hypergeometric series")
    hg.add_argument(
        "--top",
        required=True,
        help="comma list of character specs (eps, phi, chi:<k>, ord<l>, ^j)",
    )
    hg.add_argument("--bottom", required=True, help="comma list of character specs")
    hg.add_argument("--x", type=int, required=True, help="argument as an element encoding")
    hg.set_defaults(handler=_cmd_hgf)

    defaults = SweepConfig()
    vf = sub.add_parser("verify", parents=[_CONFIG], help="sweep identities over a grid")
    vf.add_argument(
        "--theorem",
        type=_str_list,
        default=defaults.theorems,
        help=f"comma list of theorem keys ({', '.join(THEOREM_KEYS)}), or all",
    )
    vf.add_argument(
        "--primes",
        type=_prime_range,
        default=(defaults.prime_min, defaults.prime_max),
        help="prime range LO:HI",
    )
    vf.add_argument(
        "--degrees",
        type=_int_list,
        default=defaults.degrees,
        help="comma list of extension degrees",
    )
    vf.add_argument(
        "--l",
        dest="l_values",
        type=_int_list,
        default=defaults.l_values,
        help="comma list of exponents l",
    )
    vf.add_argument(
        "--lambda",
        dest="lambdas",
        type=_fraction_list,
        default=defaults.lambdas,
        help="comma list of rationals",
    )
    vf.add_argument(
        "--format",
        dest="output_format",
        choices=("json", "csv"),
        default="json",
    )
    vf.add_argument("--q-cap", dest="q_cap", type=int, default=defaults.q_cap)
    vf.set_defaults(handler=_cmd_verify)
    return parser, sub.choices


def _cmd_fieldinfo(args: argparse.Namespace) -> int:
    f = make_field(args.p, args.e)
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
    f = make_field(args.p, args.e)
    pc = character_sum_count(f, CurveSpec(args.l, args.lam))
    print(json.dumps({"q": f.q, "affine": pc.affine, "projective": pc.projective, "a_q": pc.a_q}))
    return 0


# A value is reported exact when q^2 times it lies within this bound of a real
# integer.  The bound is on the q^2 multiple, not on the value: 1e-6 on the
# value would be 1e-6 * q^2 on the multiple, at least 1/2 once q > 707, and
# would accept every real number.
EXACT_TOLERANCE = 1e-6


def _cmd_hgf(args: argparse.Namespace) -> int:
    f = make_field(args.p, args.e)
    tops = [parse_character(f, spec).index for spec in args.top.split(",")]
    bottoms = [parse_character(f, spec).index for spec in args.bottom.split(",")]
    value = series_value(f, tops, bottoms, args.x)
    q2 = f.q * f.q
    scaled = value * q2
    exact = None
    near = abs(scaled.real - round(scaled.real)), abs(scaled.imag)
    if all(d <= EXACT_TOLERANCE for d in near):
        exact = str(Fraction(round(scaled.real), q2))
    print(json.dumps({"q": f.q, "re": value.real, "im": value.imag, "exact": exact}))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = SweepConfig(
        prime_min=args.primes[0],
        prime_max=args.primes[1],
        degrees=args.degrees,
        l_values=args.l_values,
        lambdas=args.lambdas,
        theorems=args.theorem,
        q_cap=args.q_cap,
    )
    blocks = row_blocks(config)  # a grid error raises here, before any output
    csv_out = args.output_format == "csv"
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
    """Run one subcommand and return its exit status, argparse's included.

    A `--config` file's lines go in right after the subcommand name, so the
    full parse checks them as it checks flags, and later flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            argv[1:1] = _config_tokens(argv[1:], commands[argv[0]])
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
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
