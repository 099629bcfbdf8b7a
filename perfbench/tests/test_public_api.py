"""The benchmark reaches the program through public names only.

Internals such as ``repro.gpusim.campaign._CampaignState`` or
``repro.serve.server._execute_request`` may be refactored freely; a
benchmark that imported them would break, or bypass the code it is meant
to measure.
"""

import ast
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SOURCES = sorted(BENCH.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str):
    """``(line, name)`` of every underscore-prefixed name taken from repro."""
    tree = ast.parse(source)
    found = []
    repro_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append((node.lineno, alias.name))
                    repro_names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                for part in node.module.split("."):
                    if _private(part):
                        found.append((node.lineno, node.module))
                for alias in node.names:
                    if _private(alias.name):
                        found.append((node.lineno, f"{node.module}.{alias.name}"))
                    repro_names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in repro_names:
                found.append((node.lineno, node.attr))
    return found


def test_the_guard_catches_private_names():
    assert private_uses("from repro.gpusim.campaign import _CampaignState")
    assert private_uses("from repro.serve._wire import frame")
    assert private_uses("import repro.gpusim._internal")
    assert private_uses("import repro\nrepro.serve.server._execute_request({})")
    assert private_uses("from repro import obs\nobs.tracer._CURRENT.get()")
    assert not private_uses("from repro.obs import Tracer\nt = Tracer()\nt._stack")
    assert not private_uses("import repro\nrepro.__version__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_benchmark_imports_no_private_repro_name(path):
    assert private_uses(path.read_text()) == []
