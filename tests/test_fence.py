"""No command reaches the code that `src` keeps only for the tests and for
`bench/tracer.py`.  Each such name is replaced by a function that raises, and
each command must then exit and write stdout exactly as it does unpatched.
If a command called one of them, the tests that use it as an oracle would
compare the program with itself."""

import sys

import pytest

import hgfq.characters
import hgfq.curves
import hgfq.hgf
import hgfq.verifier
from hgfq.cli import main
from hgfq.field import Field

# Field attributes and module functions that no command calls; log_one_minus
# is a cached property, so it is fenced by a property.
FIELD_NAMES = ("div", "inv", "pow", "jacobi_counts", "log_one_minus")
MODULE_NAMES = {
    hgfq.hgf: ("evans_F",),
    hgfq.curves: ("brute_force_count", "weierstrass_count_l3"),
    hgfq.characters: ("same_field",),
    hgfq.verifier: ("sweep",),
}

COMMANDS = [
    ("verify", "--primes", "3:31", "--degrees", "1,2,3", "--l", "2,3,4,5,6"),
    ("count", "--p", "5", "--e", "2", "--l", "3", "--lambda=2"),
    ("hgf", "--p", "13", "--top", "phi,phi,phi", "--bottom", "eps,eps", "--x", "2"),
    ("fieldinfo", "--p", "3", "--e", "2"),
]


def _forbidden(name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a command reached {name}")

    return forbidden


def _fence(monkeypatch):
    """Replace every fenced name, in each hgfq module that binds it."""
    for name in FIELD_NAMES:
        stub = _forbidden(f"Field.{name}")
        monkeypatch.setattr(Field, name, property(stub) if name == "log_one_minus" else stub)
    modules = [m for k, m in sys.modules.items() if k == "hgfq" or k.startswith("hgfq.")]
    for owner, names in MODULE_NAMES.items():
        for name in names:
            original = getattr(owner, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, _forbidden(f"{owner.__name__}.{name}"))


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_commands_never_reach_oracle_only_code(argv, monkeypatch, capsys):
    want = main(list(argv)), capsys.readouterr().out
    assert want[1]
    _fence(monkeypatch)
    assert (main(list(argv)), capsys.readouterr().out) == want
