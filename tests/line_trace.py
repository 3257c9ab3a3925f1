"""Which lines of src/repgrowth/ does tier-1 leave unrun?

`python tests/line_trace.py` runs tier-1 (pytest over the configured
testpaths) in this process under sys.settrace, tracing only the frames of
src/repgrowth/.  The executable lines of each module are the line numbers
of its code objects (co_lines), docstrings left out.  It prints every such
line that never ran, as module:line qualname | source, and exits 1 if one
falls outside ALLOW, or if tier-1 itself fails.  It needs nothing beyond
the standard library and pytest, and tier-1 does not collect it.
"""
import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "repgrowth")

# (module, qualified name, statement head or None, why it may stay unrun).
# A line is allowed when it lies in that function (or module body, for
# "<module>") and, given a head, in a statement whose source starts with it.
ALLOW = (
    ("cli", "entrypoint", None, "runs only in the child processes of tests/golden.py"),
    ("__main__", "<module>", None, "runs only in the child processes of tests/golden.py"),
    ("constructor", "build_diagonal", "raise InvariantError",
     "check (i) and the postcondition: a net for a construction fault that no input reaches"),
    ("constructor", "_StageRun.extend", "return DirichletSeries(N, dict(",
     "the recurrence's F holds counts, so the slot that is no count is a net that no input reaches"),
    ("finite_groups", "ConcreteGroup._spot_check", "raise InvariantError(\"multiplication table",
     "associativity of a catalogue group's multiplication: a net that no input reaches"),
    ("finite_groups", "_matrix_group", "raise InvariantError",
     "the order of a catalogue matrix group: a net that no input reaches"),
)


def _code_lines(code: types.CodeType) -> set:
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 for a module's start
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


class _Module:
    """One source file: its executable lines, the innermost function or
    class around each line, and the statement each line belongs to."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        self.text = source.splitlines()
        self.lines = _code_lines(compile(source, path, "exec"))
        self.scope, self.statement = {}, {}
        self._walk(ast.parse(source, path), "<module>")

    def _walk(self, node, qualname: str) -> None:
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            self.lines -= set(range(body[0].lineno, body[0].end_lineno + 1))  # a docstring
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            if isinstance(child, ast.stmt):
                for line in range(child.lineno, child.end_lineno + 1):
                    self.scope[line] = name
                    self.statement[line] = child.lineno
            self._walk(child, name)

    def allowed(self, module: str, line: int) -> bool:
        head = self.text[self.statement.get(line, line) - 1].strip()
        return any(
            module == m and self.scope.get(line, "<module>") == name and (start is None or head.startswith(start))
            for m, name, start, _ in ALLOW
        )


def main() -> int:
    import pytest

    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(PKG + os.sep):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    unrun = bad = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path, module = os.path.join(PKG, name), name[:-3]
        mod = _Module(path)
        for line in sorted(mod.lines):
            if (path, line) in ran:
                continue
            ok = mod.allowed(module, line)
            unrun, bad = unrun + 1, bad + (not ok)
            mark = "allowed" if ok else "UNRUN"
            print(f"{mark:8} {module}:{line} {mod.scope.get(line, '<module>')} | {mod.text[line - 1].strip()}")
    print(f"{unrun} executable lines unrun, {bad} outside the allowlist; pytest exit {int(status)}")
    return 1 if bad or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
