"""Print every statement of src/exosir that no run of scripts/artifact_digests.py executes.

The digest script's runs go through once in this process, under a sys.settrace
line trace of the modules in src/exosir (imports included). A statement counts
as executed when any line it owns runs: a simple statement owns all its lines,
a compound one its header (decorators, the test, the loop target, the except
clause) up to its body. Statements that compile to nothing, such as a docstring
or a bare else, are never listed. Each unexecuted statement prints as
module:line qualname: first line of its text; a function none of whose
statements runs prints once, as not entered. The digest lines are not printed.

Run from anywhere: python3 scripts/digest_coverage.py
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.realpath(os.path.join(ROOT, "src", "exosir"))


def _trace_src(executed: set) -> None:
    """Record (path, line) in executed for every line run in a module of SRC."""
    in_src = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_src:
            in_src[name] = os.path.dirname(os.path.realpath(name)) == SRC
        return local if in_src[name] else None

    sys.settrace(call)


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines that carry an instruction in code or any code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module):
    """(statement, qualname of its function or class, lines it owns) for every statement."""
    stack = [(tree, "<module>")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append((child, scope))
                continue
            inner = [n for n in ast.iter_child_nodes(child)
                     if isinstance(n, (ast.stmt, ast.excepthandler))]
            first = min((n.lineno for n in getattr(child, "decorator_list", ())),
                        default=child.lineno)
            last = min(n.lineno for n in inner) - 1 if inner else child.end_lineno
            yield child, scope, range(first, last + 1)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                prefix = "" if scope == "<module>" else scope + "."
                stack.append((child, prefix + child.name))
            else:
                stack.append((child, scope))


def unexecuted(executed: set) -> list[str]:
    """The report lines for the statements of SRC whose lines executed never holds."""
    report = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        runnable = _code_lines(compile(text, path, "exec"))
        source = text.splitlines()
        missed, ran = {}, set()
        for stmt, scope, lines in _statements(ast.parse(text)):
            own = runnable.intersection(lines)
            if not own:
                continue
            if any((path, line) in executed for line in own):
                ran.add(scope)
            else:
                missed.setdefault(scope, []).append(stmt.lineno)
        for scope, linenos in sorted(missed.items(), key=lambda item: item[1][0]):
            if scope not in ran and scope != "<module>":
                report.append(f"{name}:{linenos[0]} {scope}: not entered "
                              f"({len(linenos)} statements)")
                continue
            for lineno in sorted(linenos):
                report.append(f"{name}:{lineno} {scope}: {source[lineno - 1].strip()}")
    return report


def main() -> int:
    executed = set()
    _trace_src(executed)
    try:
        spec = importlib.util.spec_from_file_location(
            "artifact_digests", os.path.join(ROOT, "scripts", "artifact_digests.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        with contextlib.redirect_stdout(io.StringIO()):
            code = script.main()
    finally:
        sys.settrace(None)
    if code:
        return code
    executed = {(os.path.realpath(path), line) for path, line in executed}
    lines = unexecuted(executed)
    print("\n".join(lines))
    print(f"{len(lines)} line(s) above")
    return 0


if __name__ == "__main__":
    sys.exit(main())
