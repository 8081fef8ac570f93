import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mgale"


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_all_lists_exactly_the_public_top_level_defs(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    defs = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
    constants = {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
                 if isinstance(t, ast.Name) and t.id.isupper()}
    exported = importlib.import_module(f"mgale.{module}").__all__
    assert len(exported) == len(set(exported))
    assert set(exported) - constants == defs


def test_defaulted_parameters_stay_within_the_ratchet():
    # every def and lambda default in the library; a new knob raises the
    # bound here on purpose or replaces an old one
    functions = (n for p in SRC.glob("*.py") for n in ast.walk(ast.parse(p.read_text()))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    count = sum(len(n.args.defaults) + sum(d is not None for d in n.args.kw_defaults) for n in functions)
    assert count <= 11
