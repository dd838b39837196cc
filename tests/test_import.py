import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gwtrees

MODULES = ["gwtrees"] + [f"gwtrees.{m.name}" for m in pkgutil.iter_modules(gwtrees.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


TABLE_LAYER = {"offspring", "codings", "sampler", "exactlaw", "stable"}


@pytest.mark.parametrize("module", sorted(TABLE_LAYER))
def test_table_layer_imports_stay_inside_it(module):
    # laws, codings, samplers and exact/stable tables know nothing of experiments,
    # reports or the CLI: their package-relative imports stay in this set
    tree = ast.parse((Path(gwtrees.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:  # from . import a, b
                imported.update(alias.name for alias in node.names)
    assert imported <= TABLE_LAYER, f"{module} imports {sorted(imported - TABLE_LAYER)}"


def test_table_layer_caches_hold_no_law():
    # every table derived from a law lives in ``law.tables`` and goes with the law; an
    # lru_cache keyed on a law would keep it and its tables alive.  The only ones are
    # keyed on an FFT length, a float theta and a StableLaw value
    want = {"exactlaw": ["_fast_len"], "offspring": ["_stable_tail_terms"], "stable": ["_grid"]}
    for module in sorted(TABLE_LAYER):
        tree = ast.parse((Path(gwtrees.__file__).parent / f"{module}.py").read_text())
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "lru_cache"]
        decorated = [node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and any("lru_cache" in ast.unparse(dec) for dec in node.decorator_list)]
        names = want.get(module, [])
        assert decorated == names and len(uses) == len(names), module


TABLE_KINDS = {"phi_star", "progeny", "ac", "blocks", "steps", "tilt"}


class _TableKeys(ast.NodeVisitor):
    """(key, function) for every ``tables[key]``, ``tables.get(key)``, ``tables.pop(key)``
    and ``key in tables``, on ``law.tables`` or a local named ``tables``; a key that is
    not a string literal reads as "<computed>"."""

    def __init__(self, module):
        self.module, self.func, self.uses = module, "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, f"{self.module}.{node.name}"
        self.generic_visit(node)
        self.func = outer

    def generic_visit(self, node):
        def is_tables(x):
            return (isinstance(x, ast.Attribute) and x.attr == "tables"
                    or isinstance(x, ast.Name) and x.id == "tables")

        key = None
        if isinstance(node, ast.Subscript) and is_tables(node.value):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and is_tables(node.func.value) and node.args):
            key = node.args[0]
        elif isinstance(node, ast.Compare) and is_tables(node.comparators[0]):
            key = node.left
        if key is not None:
            name = key.value if isinstance(key, ast.Constant) else "<computed>"
            self.uses.add((name, self.func))
        super().generic_visit(node)


def test_each_table_kind_has_one_owner():
    # every kind of table kept in ``law.tables`` is read and written inside one
    # function, so that how it is built, widened and kept is stated in one place
    visitor = _TableKeys("")
    for path in sorted(Path(gwtrees.__file__).parent.glob("*.py")):
        visitor.module = path.stem
        visitor.visit(ast.parse(path.read_text()))
    owners = {}
    for key, func in visitor.uses:
        owners.setdefault(key, set()).add(func)
    assert set(owners) == TABLE_KINDS
    assert {key: funcs for key, funcs in owners.items() if len(funcs) != 1} == {}


def test_limits_reads_the_ac_step():
    # in ``limits`` the meander, phi, phi*, D and the conditioned marginal are reached only
    # by the absolute-continuity step and the exhaustive check: every other experiment on
    # (n, a) reads the step instead of building the tables again, and the llt reads phi_n
    # off its own W_n table
    primitives = {"meander_pmf", "phi", "phi_star", "discrete_ratio_window",
                  "conditioned_walk_marginal"}
    tree = ast.parse((Path(gwtrees.__file__).parent / "limits.py").read_text())
    users = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & primitives:
                users.add(getattr(top, "name", "<module>"))
    assert users == {"_ac_step", "check_absolute_continuity"}


def test_import_skips_scipy_signal():
    # scipy.signal costs over a second at import; the FFT path runs on numpy.fft
    env = dict(os.environ, PYTHONPATH=str(Path(gwtrees.__file__).parents[1]))
    code = "import gwtrees, sys; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_stable_numerics_skip_scipy_interpolate():
    # scipy.interpolate costs import time and resident memory; p1 and the
    # passage integral read only the Hermite grid
    env = dict(os.environ, PYTHONPATH=str(Path(gwtrees.__file__).parents[1]))
    code = ("import gwtrees, sys; law = gwtrees.StableLaw(1.5); gwtrees.density_p1(law, 0.3); "
            "gwtrees.passage_integral(law, 0.5, 1.0); print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_imports_no_scipy():
    # scipy is a test oracle only: the CLI, the exact tables (FFT branch included),
    # the stable numerics and the sampler run on numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(gwtrees.__file__).parents[1]))
    code = ("import sys, gwtrees, gwtrees.cli, gwtrees.limits\n"
            "from gwtrees import exactlaw\n"
            "law, s15 = gwtrees.StableLaw(1.5), gwtrees.make_stable_family(1.5)\n"
            "gwtrees.density_p1(law, [0.3, 1.0]); gwtrees.passage_integral(law, 0.5, 1.0)\n"
            "exactlaw.walk_pmf(s15, 512); exactlaw.meander_pmf(s15, 64, 128)\n"
            "gwtrees.sample_conditioned(s15, 1000, rng=gwtrees.derive_rng(0))\n"
            "print(exactlaw._fast_len.cache_info().currsize > 0)\n"  # the FFT branch ran
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["True", "[]"]
