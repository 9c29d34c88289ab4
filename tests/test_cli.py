"""CLI behavior through main(argv): JSON output shapes, exit codes, config
file merging, and json/csv record equivalence."""

import csv
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace

import pytest

import hgfq
from hgfq import CurveSpec, brute_force_count, make_field
from hgfq.cli import main
from hgfq.report import report_sort_key

import oracle_helpers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fieldinfo_extension_field(capsys):
    code, out, _ = run(capsys, "fieldinfo", "--p", "3", "--e", "2")
    assert code == 0
    info = json.loads(out)
    assert info["q"] == 9
    assert info["modulus"] == "x^2 + 1"
    assert info["generator"] == 4
    assert info["character_group"] == {
        "order": 8,
        "cyclic": True,
        "character_orders": [1, 2, 4, 8],
    }


def test_fieldinfo_rejects_composite(capsys):
    code, _, err = run(capsys, "fieldinfo", "--p", "4")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [("--p", "3", "--e", "100000000"), ("--p", "1000000000000000003",)])
def test_fieldinfo_refuses_an_oversized_field_at_once(capsys, argv):
    code, out, err = run(capsys, "fieldinfo", *argv)
    assert code == 2 and out == "" and "exceeds the cap" in err


def test_explicit_zero_is_not_a_default(capsys):
    # --e 0 reaches the field, which rejects it; --q-cap is verify's alone
    commands = (
        ("fieldinfo", "--p", "7"),
        ("count", "--p", "7", "--l", "2", "--lambda", "1"),
        ("hgf", "--p", "7", "--top", "phi", "--bottom", "eps", "--x", "2"),
    )
    for argv in commands:
        code, out, err = run(capsys, *argv, "--e", "0")
        assert code == 2 and out == "" and err.startswith("error:"), argv[0]
        code, out, err = run(capsys, *argv, "--q-cap", "0")
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv[0]
    code, out, err = run(capsys, "verify", "--q-cap", "0")
    assert code == 2 and out == "" and "q_cap" in err


def test_verify_refuses_a_cap_above_the_field_cap(capsys):
    code, out, err = run(capsys, "verify", "--q-cap", "100001")
    assert code == 2 and out == "" and "q_cap" in err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--l", "2", "--lambda", "1")
    assert code == 0
    assert json.loads(out) == {"q": 5, "affine": 7, "projective": 8, "a_q": -2}
    # 5 does not divide 12, and the count is brute force's
    code, out, _ = run(capsys, "count", "--p", "13", "--l", "5", "--lambda=1")
    assert code == 0
    want = brute_force_count(make_field(13), CurveSpec(5, Fraction(1)))
    assert json.loads(out) == {"q": 13, **dataclasses.asdict(want)}


def test_count_has_one_method(capsys, tmp_path):
    # the count is the character-sum count; there is no method to choose
    argv = ("count", "--p", "13", "--l", "3", "--lambda=-1/2")
    code, out, err = run(capsys, *argv, "--method", "both")
    assert (code, out) == (2, "") and "unrecognized arguments: --method" in err
    cfg = tmp_path / "method.cfg"
    cfg.write_text("method = brute\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "") and f"{cfg}:1: unknown key 'method'" in err


def test_count_negative_lambda_equals_form(capsys):
    # a leading-dash value must be attached with '=' so argparse keeps it
    code, out, _ = run(capsys, "count", "--p", "13", "--l", "3", "--lambda=-1/2")
    assert code == 0
    assert json.loads(out)["a_q"] == -2


def test_count_bad_reduction(capsys):
    code, _, err = run(capsys, "count", "--p", "3", "--l", "2", "--lambda", "1/3")
    assert code == 2
    assert "error:" in err


def test_count_missing_lambda(capsys):
    code, _, err = run(capsys, "count", "--p", "5", "--l", "2")
    assert code == 2
    assert "--lambda" in err


def test_hgf_exact_value(capsys):
    code, out, _ = run(
        capsys, "hgf", "--p", "5", "--top", "phi,phi,phi", "--bottom", "eps,eps",
        "--x", "2",
    )
    assert code == 0
    got = json.loads(out)
    assert got["q"] == 5
    assert got["exact"] == "-1/25"
    assert abs(got["re"] + 1 / 25) < 1e-9 and abs(got["im"]) < 1e-9


def test_hgf_exact_needs_an_integer_multiple(capsys):
    # q^2 * re = 641.587 here: no rational value with denominator q^2, though
    # a tolerance of 1e-6 times q^2 = 1018081 would have accepted it.
    code, out, _ = run(
        capsys, "hgf", "--p", "1009", "--top", "ord8,ord8^7,phi", "--bottom", "eps,eps",
        "--x", "5",
    )
    assert code == 0
    got = json.loads(out)
    assert got["exact"] is None
    assert abs(got["re"] * 1009**2 - 641.587) < 1e-3


def test_hgf_domain_errors(capsys):
    assert run(capsys, "hgf", "--p", "5", "--top", "phi", "--bottom", "eps,eps",
               "--x", "2")[0] == 2
    assert run(capsys, "hgf", "--p", "5", "--top", "phi,phi", "--bottom", "eps",
               "--x", "9")[0] == 2
    assert run(capsys, "hgf", "--p", "5", "--top", "zeta", "--bottom", "eps",
               "--x", "2")[0] == 2
    assert run(capsys, "hgf", "--p", "7", "--top", "ord4,phi", "--bottom", "eps",
               "--x", "2")[0] == 2  # 4 does not divide 6


VERIFY_ARGS = (
    "--primes", "5:7", "--degrees", "1", "--theorem", "ono,trace",
    "--l", "2", "--lambda", "1,1/3",
)


def test_verify_json_and_csv_agree(capsys):
    code_j, out_j, err_j = run(capsys, "verify", *VERIFY_ARGS)
    code_c, out_c, err_c = run(capsys, "verify", *VERIFY_ARGS, "--format", "csv")
    assert code_j == code_c == 0
    assert err_j == err_c
    json_rows = [json.loads(line) for line in out_j.splitlines()]
    reader = csv.DictReader(io.StringIO(out_c))
    csv_rows = list(reader)
    assert len(json_rows) == len(csv_rows) >= 12
    for jr, cr in zip(json_rows, csv_rows):
        assert cr["theorem_id"] == jr["theorem_id"]
        assert int(cr["q"]) == jr["q"]
        assert cr["status"] == jr["status"]
        assert cr["lambda"] == jr["lambda"]
        assert float(cr["abs_diff"]) == jr["abs_diff"]
        flags = dict(kv.split("=") for kv in cr["hypotheses"].split(";"))
        assert flags == {k: str(v).lower() for k, v in jr["hypotheses"].items()}
        assert (cr["sqrt_branch"] or None) == jr["sqrt_branch"]


def test_verify_summary_and_exit_codes(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "all", "--primes", "5:5", "--lambda", "0"
    )
    assert code == 0
    assert re.fullmatch(r"# pass=\d+ fail=\d+ skip=\d+\n", err)
    assert " fail=0 " in err
    assert all(json.loads(line)["status"] != "fail" for line in out.splitlines())

    code, _, err = run(
        capsys, "verify", "--theorem", "main", "--primes", "11:11",
        "--degrees", "1", "--l", "5", "--lambda", "1",
    )
    assert code == 1
    assert "fail=1" in err


def test_verify_grid_above_cap_and_empty_range(capsys):
    code, out, err = run(capsys, "verify", "--primes", "3001:3001")
    assert code == 2 and out == "" and err.startswith("error:")
    # the grid is checked before the CSV header is written
    code, out, err = run(capsys, "verify", "--primes", "3001:3001", "--format", "csv")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "verify", "--primes", "24:28")
    assert code == 0 and out == ""
    assert err == "# pass=0 fail=0 skip=0\n"


def test_verify_refuses_a_31_digit_grid_at_once():
    # The range holds the prime 10^30 + 57 but no field under the cap; a
    # subprocess with a timeout, so that a slow primality test fails here.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lo, hi = 10**30, 10**30 + 100
    argv = ["verify", "--theorem", "ono", "--primes", f"{lo}:{hi}", "--q-cap", "50"]
    proc = subprocess.run(
        [sys.executable, "-m", "hgfq", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no field of the grid" in proc.stderr


def test_verify_streams_fields_in_increasing_q(capsys):
    code, out, _ = run(capsys, "verify", "--primes", "5:13", "--degrees", "1,2")
    assert code == 1
    records = []
    for line in out.splitlines():
        d = json.loads(line)
        lam = None if d["lambda"] is None else Fraction(d["lambda"])
        records.append(SimpleNamespace(**d, lam=lam))
    qs = [r.q for r in records]
    assert qs == sorted(qs) and len(set(qs)) == 8
    for q in set(qs):
        block = [r for r in records if r.q == q]
        assert block == sorted(block, key=report_sort_key)


def test_verify_config_errors_write_nothing(capsys):
    # each is rejected before the first record and before the CSV header
    for bad in (
        ("--l", "1"),
        ("--l", "0"),
        ("--l", "2,2"),
        ("--lambda=1,1",),
        ("--lambda=1/3,2/6",),
        ("--degrees", "0"),
        ("--degrees", "1,1"),
    ):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "verify", "--primes", "5:7", "--format", fmt, *bad)
            assert code == 2 and out == "" and err.startswith("error:"), (bad, fmt)


def test_tolerance_is_not_an_option(capsys, tmp_path):
    # both bounds are fixed: a --tolerance flag or config key is a usage error
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "verify", "--primes", "5:7", "--format", fmt, "--tolerance=1e-3")
        assert (code, out) == (2, ""), fmt
        assert "--tolerance" in err
    hgf = ("hgf", "--p", "5", "--top", "phi,phi,phi", "--bottom", "eps,eps", "--x", "2")
    assert run(capsys, *hgf)[0] == 0
    assert run(capsys, *hgf, "--tolerance=0.5")[:2] == (2, "")
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tolerance = 1e-3\n")
    for argv in (("verify", "--primes", "5:7"), hgf):
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, ""), argv[0]
        assert f"{cfg}:1: unknown key 'tolerance'" in err


def test_verify_rejects_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "nope")
    assert code == 2
    assert "nope" in err


def test_config_file_merge_and_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# grid\n"
        "theorem = ono\n"
        "primes = 5:7\n"
        "degrees = 1\n"
        "lambda = 1\n"
        "format = json\n"
    )
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["theorem_id"] for r in rows} == {"ono_3f2"}
    assert {r["q"] for r in rows} == {5, 7}

    # a flag beats the file
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--primes", "13:13")
    assert code == 0
    assert {json.loads(line)["q"] for line in out.splitlines()} == {13}


def test_config_empty_path_is_an_error(capsys):
    # an empty path is an error, as a missing file is, not the absence of --config
    for flag in (["--config="], ["--config", ""]):
        code, out, err = run(capsys, "verify", *flag, "--primes", "5:5", "--theorem", "ono")
        assert code == 2 and out == "" and err.startswith("error:"), flag


def test_config_file_for_count(capsys, tmp_path):
    cfg = tmp_path / "curve.cfg"
    cfg.write_text("p = 13\nl = 2\nlambda = 2\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["a_q"] == 6


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("primes 5:7\n")
    assert run(capsys, "verify", "--config", str(bad))[0] == 2
    assert run(capsys, "verify", "--config", str(tmp_path / "gone.cfg"))[0] == 2
    # a misspelt key is an error, not a silently ignored line
    typo = tmp_path / "typo.cfg"
    typo.write_text("# grid\nl = 2\nlamda = 5\n")
    for argv in (("verify",), ("count", "--p", "7", "--l", "2")):
        code, out, err = run(capsys, *argv, "--config", str(typo))
        assert (code, out) == (2, "")
        assert f"{typo}:3: unknown key 'lamda'" in err


# Every long option of each subcommand, with values whose runs differ from
# one another, so a file value that was dropped shows as a stdout mismatch.
CONFIG_CASES = {
    "fieldinfo": {"p": ("3", "5"), "e": ("2", "1")},
    "count": {
        "p": ("13", "7"),
        "e": ("1", "2"),
        "l": ("3", "2"),
        "lambda": ("-1/2", "3"),
    },
    "hgf": {
        "p": ("1009", "17"),
        "e": ("1", "2"),
        "top": ("ord8,ord8^7,phi", "phi,phi,phi"),
        "bottom": ("eps,eps", "phi,eps"),
        "x": ("5", "2"),
    },
    "verify": {
        "theorem": ("ono,trace", "ono"),
        "primes": ("5:7", "11:11"),
        "degrees": ("1", "1,2"),
        "l": ("2", "2,3"),
        "lambda": ("-1/2,1/3", "1"),
        "format": ("json", "csv"),
        "q-cap": ("2000", "6"),
    },
}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_keys_act_as_their_flags(capsys, tmp_path, command):
    options = CONFIG_CASES[command]
    code, usage, _ = run(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--([a-z][a-z-]*)", usage)) - {"config", "help"} == set(options)
    base = {key: values[0] for key, values in options.items()}
    cfg = tmp_path / "one.cfg"
    for key, values in options.items():
        outcomes = set()
        for value in values:
            flags = [f"--{k}={v}" for k, v in {**base, key: value}.items()]
            want = run(capsys, command, *flags)
            # the file spells the key with underscores, as q_cap
            cfg.write_text(f"# one key\n{key.replace('-', '_')} = {value}\n")
            rest = [f"--{k}={v}" for k, v in base.items() if k != key]
            got = run(capsys, command, "--config", str(cfg), *rest)
            assert got[:2] == want[:2], (key, value)
            outcomes.add(want[:2])
        assert len(outcomes) == len(values), key


def test_config_values_are_checked_as_flags(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for argv, line, flag in (
        (("fieldinfo",), "p = x", "--p"),
        (("count", "--p", "7", "--lambda", "1"), "l = two", "--l"),
        (("verify",), "format = xml", "--format"),
        (("count",), "p = 13\nl = 2", "--lambda"),  # a required flag in neither place
    ):
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, ""), line
        assert flag in err, (line, err)
    for key in ("config", "help"):
        cfg.write_text(f"{key} = x\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:1: unknown key {key!r}" in err


def test_verify_exits_quietly_when_stdout_closes():
    # `hgfq verify | head -1`: exit 141 (128 + SIGPIPE) with nothing on stderr
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hgfq", "verify"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()  # the default sweep writes far more than a pipe holds
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_bench_tracer_binds_every_traced_name():
    # bench/tracer.py wraps package functions and Field methods by name, so
    # renaming or deleting one of them must fail here, not only in a benchmark run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import hgfq; from tracer import Tracer; Tracer().install()"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


TRACED_VERIFY = """
import json
import hgfq.cli
from tracer import PER_LAYER, Tracer
tracer = Tracer()
tracer.install()
code = hgfq.cli.main(["verify", "--primes", "5:13"])
print(json.dumps([code, [name for name, _ in PER_LAYER], tracer.layer_metrics()]))
"""


def test_bench_tracer_traces_a_verify_run():
    # Binding alone calls no wrapper, so a changed call shape, such as a curve
    # argument without the .l and .lam that the count spans read, fails only here
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, per_layer, metrics = json.loads(proc.stdout.splitlines()[-1])
    assert code == 1  # the grid holds the l = 5 squared-trace records that fail as printed
    assert metrics and set(metrics) <= set(per_layer), set(metrics) - set(per_layer)
    assert all(isinstance(v, (int, float)) and v >= 0 for v in metrics.values()), metrics
    assert metrics["curves.count_calls"] > 0
    assert metrics["hgf.series_calls"] > 0 and metrics["field.builds"] > 0


PACKAGE_NAMES = {
    "BadReductionError", "Character", "CongruenceError", "CurveSpec", "DEFAULT_Q_CAP", "Field",
    "FieldMismatchError", "FieldTooLargeError", "HgfqError", "LogOfZeroError",
    "NoRepresentationError", "NotPrimeError", "OddPrimeRequiredError", "OrderNotDividingError",
    "PointCount", "SweepConfig", "VerificationReport",
    "brute_force_count", "build_report", "character_of_order", "character_sum_count",
    "cornacchia_3", "evans_F", "good_reduction", "is_prime", "make_field", "parse_character",
    "reduce_lambda", "series_value", "sweep",
    "verify_2f1_specials", "verify_2f1_trace", "verify_3f2_at_4", "verify_charsum_lemmas",
    "verify_corollary_c3", "verify_corollary_chi4", "verify_corollary_lcm", "verify_lambda_third",
    "verify_main_square", "verify_mccarthy", "verify_ono", "weierstrass_count_l3",
}
# what no command, sweep or benchmark calls, kept as oracles in tests/oracle_helpers.py
ORACLE_NAMES = {
    "hgfq.charsums": ("CyclotomicSum", "jacobi_sum", "gauss_sum", "g_sum", "g_sum_c"),
    "hgfq.hgf": ("hgf_2f1", "evans_F_star"),
    "hgfq.characters": ("sqrt_character", "delta_char"),
    "hgfq.curves": ("genus", "hasse_weil_bound"),
    "hgfq.report": ("summarize",),
}
# second names of an element or character operation, each reached through its one name:
# sub(0, a), pow(generator, k), from_rational(c), list(_tail) + [1], char_value(chi.index, x),
# chi ** -1, chi.index == 0, Character(f, a.index + b.index), character_of_order(f, 1) and (f, 2)
ALIASES = {
    hgfq.Field: ("neg", "exp", "from_int", "modulus_poly"),
    hgfq.Character: ("value", "inverse", "is_trivial", "__mul__"),
    hgfq.characters: ("trivial_character", "quadratic_character"),
}


def test_package_exports_only_what_the_program_uses():
    assert len(hgfq.__all__) == len(PACKAGE_NAMES) and set(hgfq.__all__) == PACKAGE_NAMES
    for name in hgfq.__all__:
        getattr(hgfq, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("hgfq.charsums")
    for module, names in ORACLE_NAMES.items():
        for name in names:
            assert callable(getattr(oracle_helpers, name)), name
            assert not hasattr(hgfq, name), name
            if module != "hgfq.charsums":
                assert not hasattr(importlib.import_module(module), name), (module, name)
    for owner, names in ALIASES.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
