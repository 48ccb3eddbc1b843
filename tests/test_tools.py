"""Guards for the repository's tools."""

import ast
import importlib
import importlib.util
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _load_parity():
    spec = importlib.util.spec_from_file_location("tools_parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_driver_names_resolve():
    # the parity gate runs these drivers in both trees; a name the package
    # no longer has would otherwise only show as every probe differing
    parity = _load_parity()
    imported = [
        (node.module, alias.name)
        for driver in (parity.DRIVER, parity.LIBRARY_DRIVER)
        for node in ast.walk(ast.parse(driver))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ratcoord"
        for alias in node.names
    ]
    assert len(imported) > 20
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{module_name}.{name}"
