"""Every mutant in tools/mutants.py still applies to the source it names.

A refactor that moves a mutant's fragment would otherwise show only in the
full mutation run: the fragment must occur exactly once, and the mutated
file must still parse, so that a mutant is killed by the guard's tests and
not by an import error.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves the module's string annotations through sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _load_mutants(), ids=lambda m: m.name)
def test_mutant_applies_once_and_parses(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1, f"{mutant.old!r} in {mutant.path}"
    ast.parse(text.replace(mutant.old, mutant.new), filename=mutant.path)
