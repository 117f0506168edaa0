"""The library below ``repro.bench`` never imports from it.

``repro.bench`` holds the figures, gates and their drivers; it builds
on the rest of the package, never the other way round.  Every import
statement counts, function-local ones included.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BENCH = SRC / "bench"


def bench_imports(path: Path):
    """``(line, module)`` of every import of ``repro.bench`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "repro.bench" or name.startswith("repro.bench.")]
    return found


def test_nothing_outside_bench_imports_bench():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if BENCH not in path.parents
        and (hits := bench_imports(path))
    }
    assert offenders == {}


def test_the_scan_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from repro.bench.profiling import profile_regular\n"
        "    import repro.bench\n"
    )
    assert bench_imports(probe) == [
        (2, "repro.bench.profiling"), (3, "repro.bench"),
    ]
