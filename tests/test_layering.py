"""The layer contract: the protocol packages never import the layers above.

``repro.api`` (engines, sessions, batches), ``repro.service`` and
``repro.net`` sit on top of the protocol stack. A module under the stack
may reach up only from inside a function (as
:meth:`repro.core.secure_engine.SecureRun.finalize` builds its
``RunResult``): a module-level import would make the stack unimportable
without the layers above it, and a cycle the first time one of them
imports the stack back.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
STACK = (
    "core", "mpc", "crypto", "sharing", "transfer", "privacy",
    "simulation", "obs", "finance", "graphgen",
)
ABOVE = ("repro.api", "repro.service", "repro.net")
MODULES = sorted(path for package in STACK for path in (ROOT / package).rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def module_level_imports(path: Path):
    """Every module imported outside a function body: top-level
    statements, class bodies and ``if`` / ``try`` / ``with`` blocks,
    relative imports resolved against the module's package."""
    stack = list(ast.parse(path.read_text(), str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = _module_name(path).split(".")
                if path.name != "__init__.py":
                    package = package[:-1]
                prefix = package[: len(package) - node.level + 1]
                base = ".".join(prefix + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:  # ``from repro import api``
                yield node.lineno, f"{base}.{alias.name}"
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_the_walk_sees_every_stack_package():
    assert {path.relative_to(ROOT).parts[0] for path in MODULES} == set(STACK)
    assert len(MODULES) > 50


def test_the_walk_finds_module_level_imports_and_skips_function_local_ones(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import repro.api\n"
        "from repro import service\n"
        "if True:\n    from repro.net import cluster\n"
        "class C:\n    import repro.api.result\n"
        "def f():\n    from repro.api.result import RunResult\n"
    )
    found = [name for _, name in module_level_imports(probe)]
    assert {"repro.api", "repro.service", "repro.net", "repro.api.result"} <= set(found)
    assert not any(name.endswith("RunResult") for name in found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: _module_name(path))
def test_no_stack_module_imports_a_layer_above_at_module_level(path):
    offending = [
        f"line {line}: {name}"
        for line, name in module_level_imports(path)
        if any(name == above or name.startswith(above + ".") for above in ABOVE)
    ]
    assert not offending, f"{_module_name(path)} imports {offending}"
