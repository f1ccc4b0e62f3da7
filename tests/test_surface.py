"""Every function, class and method of the package is reached by something that runs it.

A top-level function or class of ``src/cfrenewal/*.py``, or a method of such
a class, must be named somewhere in the package, the benchmarks, the tools or
the acceptance criteria: as an ``ast.Name``, an ``ast.Attribute``, an import,
or an identifier-shaped string (the benchmark tracer patches by name).  A
classmethod or staticmethod whose name another class also defines counts
only as ``Class.method``: a bare ``constant`` would let ``DigitStream.constant``
hide an unused ``MobiusState.constant``.  Unit tests do not count, so code
that only its own tests reach shows up here.
Names Python calls implicitly (``__init__``, ``__call__``, ...) are exempt.

The rest must be on ``KEEP`` with a reason: ``reference`` for an oracle that
tests compare against, or the ROADMAP item that will use it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfrenewal"

KEEP = {
    "bits.BitSource.next_bit": "reference",
    "bits.uniform_from_block": "reference",
    "exact.MobiusState.interval": "reference",
    "exact.gauss_iteration_oracle": "reference",
    "farey.verify_induced_map": "reference",
    "farey.kac_process": "ROADMAP item 5",
    "farey.ly_orbit": "ROADMAP item 7",
    "stats.EmpiricalDistribution.cdf": "ROADMAP item 1",
    "transfer.mu_integral": "ROADMAP item 6",
}


def _definitions() -> dict[str, str]:
    """``module.name`` and ``module.Class.method`` of the package, mapped to the name a use must have."""
    defs = {}
    methods: dict[str, list] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
                        methods.setdefault(sub.name, []).append((path.stem, node.name, sub))
    for name, owners in methods.items():
        for module, cls, fn in owners if len(owners) > 1 else ():
            if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod") for d in fn.decorator_list):
                defs[f"{module}.{cls}.{name}"] = f"{cls}.{name}"
    return defs


def _used_names() -> set[str]:
    files = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "tools").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                # the class a qualified use names: ``Class.method`` or ``module.Class.method``
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner:
                    used.add(f"{owner}.{node.attr}")
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
    return used


def _unreached() -> set[str]:
    used = _used_names()
    return {
        qual
        for qual, name in _definitions().items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_is_reached_or_kept():
    missing = sorted(_unreached() - KEEP.keys())
    assert not missing, f"reached by nothing but unit tests; delete them or add them to KEEP: {missing}"


def test_keep_list_is_current():
    defs = _definitions()
    assert not [q for q in KEEP if q not in defs], "KEEP names a definition that is gone"
    # an entry that something now reaches is no longer an exception
    assert not sorted(KEEP.keys() - _unreached()), "KEEP names a definition that is reached"
    for qual, reason in KEEP.items():
        assert re.fullmatch(r"reference|ROADMAP item \d+", reason), (qual, reason)
