"""Config values are checked once, where they enter the program.

A ConfigError (exit 2) may be raised only by the config and spec decoder,
by the `check` of a record that its constructor runs (RunConfig,
ClusterSection, PeriodSpec, DiffusionThresholds, the syngen specs), by the
CLI's own flag check and by
the syngen preset lookup. A library routine takes its settings as given, so
a rule cannot come back as a second copy deeper in the pipeline.
"""

import ast
from pathlib import Path

import diachron

ALLOWED = {
    ("errors", "decode"),
    ("errors", "_value"),
    ("errors", "read_json_object"),
    ("cli", "main"),
    ("syngen", "preset"),
    ("pipeline", "check"),
    ("syngen", "check"),
}


def _config_error_raisers(tree):
    """(enclosing function, line) of each `raise ConfigError(...)` in a module."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_config_error_is_raised_only_at_the_config_boundary():
    package = Path(diachron.__file__).parent
    raisers = []
    for path in sorted(package.glob("*.py")):
        for function, line in _config_error_raisers(ast.parse(path.read_text(encoding="utf-8"))):
            raisers.append((path.stem, function, line))
    assert raisers, "the scan found no raise at all"
    outside = [
        f"{module}.py:{line} in {function}"
        for module, function, line in raisers
        if (module, function) not in ALLOWED
    ]
    assert outside == []

