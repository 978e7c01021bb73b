"""Audit of the package's options: every defaulted parameter gets set.

A default that no call overrides is a setting nobody exercises: the tests
and the CLI only ever run one value of it.  Such a value belongs in a named
constant next to the code that uses it, and the branches only other values
reach belong nowhere.  This test parses ``src/relaxstab`` and fails on a
defaulted parameter that no call in ``src/`` or ``tests/`` sets, unless it
is on the short allow-list below.  It caps the number of defaulted
parameters and of CLI config keys so that a new option shows up in the diff
that adds it, and checks that README.md lists every config key.

Calls are matched by name (``f(...)``, ``obj.f(...)``, and ``Cls(...)`` for
``Cls.__init__``); a parameter counts as set when a call passes it by
keyword, positionally, or through ``*args``/``**kwargs``.
"""

import ast
import re
from pathlib import Path

from relaxstab.cli import OPTIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relaxstab"
CALLERS = (ROOT / "src", ROOT / "tests")

# Defaults kept although no call sets them: seeds, file paths and problem
# inputs, which a user picks per run rather than per program.
ALLOWED = {
    ("profile.save_profile", "json_path"),
    ("profile.load_profile", "json_path"),
    ("resolvent.bump_perturbation", "center"),
    ("timedomain.gaussian_initial_data", "center"),
}

# Defaulted parameters in src/relaxstab; a change that adds one raises this.
MAX_DEFAULTS = 60
# Config keys of the CLI (``cli.OPTIONS``); the same holds for a new key.
MAX_CONFIG_KEYS = 34


def _defaults(fn):
    """``(name, positional index or None)`` of each defaulted parameter."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(pos) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _definitions():
    """``(qualified name, call name, is_method, FunctionDef)`` per function.

    ``call name`` is the name calls use: the class name for ``__init__``.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item] = cls.name
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(fn)
            qual = f"{path.stem}.{owner + '.' if owner else ''}{fn.name}"
            name = owner if fn.name == "__init__" else fn.name
            yield qual, name, owner is not None, fn


def _calls():
    """``{called name: [Call node, ...]}`` over every file of ``CALLERS``."""
    calls = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    calls.setdefault(f.id, []).append(node)
                elif isinstance(f, ast.Attribute):
                    calls.setdefault(f.attr, []).append(node)
    return calls


def _sets(call, param, index, offset):
    """Whether ``call`` passes ``param`` (at ``index``, after ``offset``
    implicit leading arguments such as ``self``)."""
    keywords = {k.arg for k in call.keywords}
    if param in keywords or None in keywords:
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) + offset > index


def unset_defaults():
    calls = _calls()
    unset = set()
    for qual, name, is_method, fn in _definitions():
        offset = 1 if is_method else 0
        for param, index in _defaults(fn):
            if not any(_sets(c, param, index, offset)
                       for c in calls.get(name, ())):
                unset.add((qual, param))
    return unset


def test_every_default_is_set_by_some_call():
    unset = unset_defaults() - ALLOWED
    assert not unset, (
        "defaulted parameters that no call in src/ or tests/ sets; make each "
        "a module constant or set it in a test: "
        + ", ".join(f"{q}({p})" for q, p in sorted(unset)))


def test_allow_list_names_unset_defaults():
    # an entry whose option is gone, or now set by a call, is stale
    stale = ALLOWED - unset_defaults()
    assert not stale, f"stale allow-list entries: {sorted(stale)}"


def test_defaulted_parameters_within_ceiling():
    count = sum(len(_defaults(fn)) for _, _, _, fn in _definitions())
    assert count <= MAX_DEFAULTS, (
        f"{count} defaulted parameters in src/relaxstab, ceiling "
        f"{MAX_DEFAULTS}; a new option raises MAX_DEFAULTS in its own diff")


def test_config_keys_within_ceiling():
    assert len(OPTIONS) <= MAX_CONFIG_KEYS, (
        f"{len(OPTIONS)} config keys, ceiling {MAX_CONFIG_KEYS}; a new key "
        f"raises MAX_CONFIG_KEYS in its own diff")


def test_readme_lists_every_config_key():
    listed = re.findall(r"^\| `([\w.]+)` \|", (ROOT / "README.md").read_text(),
                        re.MULTILINE)
    assert listed == list(OPTIONS)
