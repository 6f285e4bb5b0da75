"""Gate: every statement of src/wickgrid runs in tier-1, or is allowlisted.

Run from the repository root:

    PYTHONPATH=src python tests/unexecuted.py [extra pytest arguments]

It runs the tier-1 suite in this process under a line tracer
(`sys.settrace`, and `threading.settrace` for worker threads) that records
only frames of src/wickgrid.  It maps the executable statements of each
module with `ast` and prints each one that never ran as
`file:line qualname`, marked `allowed` where ALLOWED names its qualified
name.  It exits with pytest's code if the suite fails, 1 if a statement
outside ALLOWED never ran or an ALLOWED entry names no unexecuted
statement, and 0 otherwise.  Pytest does not collect this file.

A statement counts as run when the tracer saw a line of its own: a line of a
simple statement, or of a compound one's header (decorators included) or
first body statement, since some headers (`try:`, `while True:`) emit no
line event.  Docstrings, `global`, `nonlocal` and bare annotations inside
functions compile to no code and are not statements here.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wickgrid"

# qualified name (module stem, then the enclosing classes and functions) ->
# why its unexecuted statements may stay unexecuted
ALLOWED = {
    "chaos.WickCombo.__repr__": "debugging text; no result reads it",
    "covariance.TimeGrid.__repr__": "debugging text; no result reads it",
    "covariance.WeightedFbm.__repr__": "debugging text; no result reads it",
    "covariance.GramContext.__repr__": "debugging text; no result reads it",
    "fraccalc.FuncOnGrid.__repr__": "debugging text; no result reads it",
    "cli.<module>": "the `if __name__ == '__main__'` entry; tests call cli.main",
    "cli._numpy_to_python": "json's default hook refuses an object that is not numpy; "
                            "every body holds only numbers, strings and numpy values",
    "fraccalc._series_2f1": "a guard: no argument that gauss_2f1 admits is known to need "
                            "200,000 terms",
}


def _trace_lines():
    """(seen, tracer): seen collects (filename, line) of package frames."""
    seen = set()
    prefix = str(PACKAGE) + "/"
    wanted = {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        keep = wanted.get(code)
        if keep is None:
            keep = wanted[code] = code.co_filename.startswith(prefix)
        return local if keep else None

    return seen, tracer


def _is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _statements(tree):
    """(statement, qualname) for each statement that compiles to code."""
    out = []

    def walk(node, qual, in_function):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
                if isinstance(child, ast.ExceptHandler):
                    walk(child, qual, in_function)
                    continue
                if (_is_docstring(child, node) or isinstance(child, (ast.Global, ast.Nonlocal))
                        or (in_function and isinstance(child, ast.AnnAssign)
                            and child.value is None)):
                    continue
                out.append((child, qual))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if qual == "<module>" else f"{qual}.{child.name}"
                    walk(child, inner, not isinstance(child, ast.ClassDef))
                else:
                    walk(child, qual, in_function)

    walk(tree, "<module>", False)
    return out


def _own_lines(node):
    """The lines whose events show that node ran: a simple statement's own,
    or a compound one's header (decorators included) through its first
    body line."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    return set(range(first, (body[0].lineno if body else node.end_lineno) + 1))


def unexecuted(seen):
    """[(path, line, qualname)] of every statement under PACKAGE that never ran."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for name, line in seen if name == str(path)}
        for node, qual in _statements(ast.parse(path.read_text())):
            if not _own_lines(node) & lines:
                missing.append((path.relative_to(ROOT), node.lineno, f"{path.stem}.{qual}"))
    return missing


def main(argv):
    seen, tracer = _trace_lines()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"tier-1 exited {code}; no statement count is made", file=sys.stderr)
        return int(code)
    missing = unexecuted(seen)
    for path, line, qual in missing:
        print(f"{path}:{line} {qual}{'  allowed' if qual in ALLOWED else ''}")
    bad = [qual for _, _, qual in missing if qual not in ALLOWED]
    stale = sorted(set(ALLOWED) - {qual for _, _, qual in missing})
    for qual in stale:
        print(f"allowlisted {qual} has no unexecuted statement; remove it from ALLOWED")
    print(f"{len(missing)} unexecuted statement(s), {len(bad)} not allowlisted, "
          f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
