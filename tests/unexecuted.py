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

With `--reach` it asks a second question: which public functions does the
paper's pipeline never enter?

    PYTHONPATH=src python tests/unexecuted.py --reach [extra pytest arguments]

It runs, under the same tracer, `cli.main` over every digested run of
tests/test_bodies.py (each CONTRACT_CASES config at its four seeds and the
pinned WORKLOADS configs), which must exit 0, then over each
test_cli.BRANCH_CASES config at seed 1, which must exit 0 or 2, and then
pytest over tests/test_acceptance.py (the extra arguments go to that run).
A function or method is public when no part of its qualified name after the
module starts with `_`; nested functions are not counted.  It counts as
reached when one of its body statements ran, so a body that is a docstring
alone is never reached.  Each public one that was not is printed as
`file:line qualname`, marked `allowed` where REACH_ALLOWED names it.  It
exits 1 if a run failed, if an unreached name is not in REACH_ALLOWED or if
a REACH_ALLOWED entry names no unreached function, and 0 otherwise.
"""

import ast
import contextlib
import io
import sys
import tempfile
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

_MULTI_ROW = "shifted_qce's branch for multi-row power sums, which no pinned config builds"

# qualified name -> why no CLI run and no acceptance criterion needs to reach
# this public function or method
REACH_ALLOWED = {
    **dict.fromkeys(["chaos.SymmetricTensor.add_rows_to", "chaos.SymmetricTensor.project_coords",
                     "chaos.GramImage.pairings", "chaos.GramImage.terms"], _MULTI_ROW),
    "chaos.SymmetricTensor.zero": "the result of SymmetricTensor.scaled(0.0)",
    "covariance.TimeGrid.refine": "the README's refinement statement and the refinement "
                                  "property tests",
    "covariance.WeightedFbm.cov": "the model interface that _gram_from_cov reads for a "
                                  "SumModel component",
    "fraccalc.kstar": "the appendix operator K* that the README documents",
    "skorokhod.ChaosField.cell_s": "verify_solution_weak's check of a ChaosField Z",
    "qce.contract_with_shift": "a per-layer name that BENCHMARK.json declares, until "
                               "ROADMAP item 3's benchmark change retires it",
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


def _never_ran(seen, units):
    """[(path, line, qualname)] of each unit of a module under PACKAGE none of
    whose own lines ran; units(tree) gives (qualname, line, own lines)."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for name, line in seen if name == str(path)}
        for qual, line, own in units(ast.parse(path.read_text())):
            if not own & lines:
                missing.append((path.relative_to(ROOT), line, f"{path.stem}.{qual}"))
    return missing


def unexecuted(seen):
    """[(path, line, qualname)] of every statement under PACKAGE that never ran."""
    return _never_ran(seen, lambda tree: [(qual, node.lineno, _own_lines(node))
                                          for node, qual in _statements(tree)])


def public_defs(tree):
    """{qualname: (line, lines)} of each public function and method in a
    module's ast: the line of its `def` and the own lines (_own_lines) of its
    body statements, docstring left out.  Classes are walked for methods,
    functions are not."""
    out = {}

    def walk(node, qual):
        for child in node.body:
            if (not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    or child.name.startswith("_")):
                continue
            name = child.name if qual is None else f"{qual}.{child.name}"
            if isinstance(child, ast.ClassDef):
                walk(child, name)
            else:
                out[name] = (child.lineno, set().union(
                    *(_own_lines(s) for s in child.body if not _is_docstring(s, child))))

    walk(tree, None)
    return out


def unreached(seen):
    """[(path, line, qualname)] of every public function or method under
    PACKAGE with no body statement that ran."""
    return _never_ran(seen, lambda tree: [(qual, line, own)
                                          for qual, (line, own) in public_defs(tree).items()])


@contextlib.contextmanager
def _tracing():
    """Trace package lines in this thread and in threads started inside the
    block; yields the set of (filename, line) seen."""
    seen, tracer = _trace_lines()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield seen
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _report(missing, allowed, stale_note, noun):
    """Print missing, marking the allowed; 1 if one is not allowed or an
    allowlist entry is not missing, else 0."""
    for path, line, qual in missing:
        print(f"{path}:{line} {qual}{'  allowed' if qual in allowed else ''}")
    bad = [qual for _, _, qual in missing if qual not in allowed]
    stale = sorted(set(allowed) - {qual for _, _, qual in missing})
    for qual in stale:
        print(f"allowlisted {qual} {stale_note}")
    print(f"{len(missing)} {noun}, {len(bad)} not allowlisted, "
          f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if bad or stale else 0


def _run_cli():
    """Run the CLI over the digested and branch configs; the runs that failed."""
    import test_bodies
    import test_cli
    from wickgrid import cli

    runs = [(label, exp, text, seed, {0}) for label, exp, text, seed in test_bodies.runs()]
    runs += [(f"branch/{i:02d}-{exp}@1", exp, text, 1, {0, 2})
             for i, (exp, text) in enumerate(test_cli.BRANCH_CASES)]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, (label, exp, text, seed, ok) in enumerate(runs):
            cfg, out, err = Path(tmp) / f"{n}.cfg", Path(tmp) / f"{n}", io.StringIO()
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([exp, "--config", str(cfg), "--out", str(out),
                                 "--seed", str(seed)])
            if code not in ok:
                failed.append(f"{label} exited {code}: {err.getvalue().strip()}")
    return failed


def reach(argv):
    with _tracing() as seen:
        failed = _run_cli()
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py"), *argv])
    if code != 0:
        failed.append(f"the acceptance criteria exited {code}")
    if failed:
        print("\n".join(failed) + "\nno reach count is made", file=sys.stderr)
        return 1
    return _report(unreached(seen), REACH_ALLOWED,
                   "is reached or no public def; remove it from REACH_ALLOWED",
                   "unreached public function(s)")


def main(argv):
    with _tracing() as seen:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    if code != 0:
        print(f"tier-1 exited {code}; no statement count is made", file=sys.stderr)
        return int(code)
    return _report(unexecuted(seen), ALLOWED,
                   "has no unexecuted statement; remove it from ALLOWED",
                   "unexecuted statement(s)")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--reach"]:
        sys.exit(reach(sys.argv[2:]))
    sys.exit(main(sys.argv[1:]))
