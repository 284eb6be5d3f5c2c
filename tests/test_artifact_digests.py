"""Every CLI run in scripts/artifact_digests.py keeps the digest checked in beside this
file, and together the runs enter every function defined in src/exosir.

The script runs once, traced with sys.setprofile; both tests read that one pass.
"""

import contextlib
import importlib.util
import inspect
import io
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).with_name("artifact_digests.txt")

# Functions no CLI run enters, kept because perfbench still wraps them by name. A
# name leaves this list when its function leaves src, and the list gains none.
LIBRARY_ONLY = {"network.generate_ba_graph", "network.step", "network.run_simulation",
                "network.ContactGraph.adjacency_matrix", "network._require_statuses"}


def _by_label(text: str) -> dict[str, str]:
    return {line.split()[0]: line for line in text.splitlines()}


@pytest.fixture(scope="module")
def traced_pass():
    """(stdout of the digest script, code objects its runs entered), from one traced pass."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.cli._parser.cache_clear()  # built once per process: an earlier test would hide it
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    out = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            code = script.main()
    finally:
        sys.setprofile(previous)
    assert code == 0
    return out.getvalue(), entered, Path(script.cli.__file__).resolve().parent


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _functions(package: Path) -> dict[tuple[str, int, str], str]:
    """Every def in the package's modules, nested ones and methods too: key -> module.qualname.

    Qualified names are built while walking the code objects, as Python names
    them (code objects carry co_qualname only from Python 3.11 on).
    """
    found = {}
    for path in sorted(package.glob("*.py")):
        codes = [(compile(path.read_text(encoding="utf-8"), os.path.realpath(path), "exec"), "")]
        while codes:
            code, qualname = codes.pop()
            # class bodies and the module are not optimized; lambdas and comprehensions are <named>
            function = code.co_flags & inspect.CO_OPTIMIZED
            if function and not code.co_name.startswith("<"):
                found[_key(code)] = f"{path.stem}.{qualname}"
            prefix = f"{qualname}.<locals>." if function else f"{qualname}." if qualname else ""
            codes.extend((c, prefix + c.co_name) for c in code.co_consts
                         if isinstance(c, types.CodeType))
    return found


def test_artifacts_match_checked_in_digests(traced_pass):
    stdout, _, _ = traced_pass
    expected, actual = _by_label(LISTING.read_text(encoding="utf-8")), _by_label(stdout)
    differing = [label for label in {**expected, **actual}
                 if expected.get(label) != actual.get(label)]
    assert not differing, f"runs whose exit code or output changed: {', '.join(differing)}"


def test_runs_enter_every_src_function(traced_pass):
    _, entered, package = traced_pass
    defined = _functions(package)
    names = set(defined.values())
    reached = {defined[key] for key in map(_key, entered) if key in defined}
    unreached = names - reached
    assert not unreached - LIBRARY_ONLY, (
        f"src functions no CLI run enters: {', '.join(sorted(unreached - LIBRARY_ONLY))}; "
        "add a run to scripts/artifact_digests.py or move the function out of src")
    assert not LIBRARY_ONLY & reached, (
        f"library-only functions a CLI run enters: {', '.join(sorted(LIBRARY_ONLY & reached))}")
    assert LIBRARY_ONLY <= names, (
        f"library-only names src no longer defines: {', '.join(sorted(LIBRARY_ONLY - names))}")
