import ast
import importlib
from pathlib import Path

import pytest

from mgale import cli

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
    assert count <= 9


def test_config_keys_stay_within_the_ratchet():
    # every key a config may set, over the top level, "output" and each
    # kind's parameters; a new key raises the bound here on purpose
    assert sum(map(len, cli.SCHEMAS.values())) + len(cli._CONFIG) + len(cli._OUTPUT) <= 45


def test_block_cells_is_read_only_by_the_block_rule():
    # every blocked kernel takes its rows from martingale._rows_per_block, so
    # a new kernel cannot grow its own block formula; the definition is a store
    readers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name == "_BLOCK_CELLS" and not isinstance(getattr(node, "ctx", None), ast.Store):
                    readers.add((path.stem, getattr(top, "name", type(top).__name__)))
    assert readers == {("martingale", "_rows_per_block")}


def test_audit_rows_are_built_only_by_the_row_builders():
    # every bound row goes through martingale._bound_report, which refuses a
    # non-finite side; the telescoping equality row and the averaging-decay
    # row build theirs directly
    callers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if "AuditReport" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", type(top).__name__)))
    assert callers == {
        ("martingale", "_bound_report"),
        ("martingale", "_telescoping_reports"),
        ("symbolic", "averaging_decay_audit"),
    }


def test_report_text_is_formatted_in_cli_and_written_by_run():
    # cli turns numbers into report text (GramMatrix keeps its own writer,
    # faster than a per-cell one at k = 512) and cli.run is the only code
    # that writes a file
    found = {"StringIO": set(), "to_csv": set(), "writes": set()}
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", type(top).__name__))
            for node in ast.walk(top):
                if "StringIO" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                    found["StringIO"].add(where)
                if isinstance(node, ast.FunctionDef) and node.name == "to_csv":
                    found["to_csv"].add(where)
                func = getattr(node, "func", None)
                if {getattr(func, "id", None), getattr(func, "attr", None)} & {"open", "write_text", "write_bytes"}:
                    found["writes"].add(where)
    assert found == {"StringIO": set(), "to_csv": {("davenport", "GramMatrix")}, "writes": {("cli", "run")}}
