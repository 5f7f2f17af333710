#!/usr/bin/env python3
"""Statements of the visbound package that no fixed experiment config
executes:

    python3 scripts/line_trace.py [label ...]

The configs are those of scripts/byte_identity.py (the golden configs, the
scripts/run_*.py and README command lines, the benchmark's experiments at
their "full" sizes and its `LARGE` configs).  Each runs once at seed 0
through `visbound.cli.run`, in process, into a temporary directory, under
`sys.settrace`; the import of the package is traced too, so a function
that only the import calls counts as executed.  With label arguments, only
the configs whose label contains one of them run.

Printed is each statement inside a function of `src/visbound` that no run
executed, as `file:line: text`, and then their count.  A docstring runs no
line and is left out; a compound statement (if, for, try, ...) counts as
executed when its header line ran or a statement in it did.
"""

import ast
import os
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "visbound")
_BLOCKS = ("body", "orelse", "finalbody", "handlers")


@contextmanager
def traced(hit: set):
    """Adds (file, line) to `hit` for each line of `SRC` run inside."""
    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename.startswith(SRC) else None)
    try:
        yield
    finally:
        sys.settrace(None)


def _statements(tree: ast.Module) -> list:
    """Each statement inside a function body, at any depth, in line order,
    without docstrings and the global and nonlocal declarations."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    inside = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (node is not fn and isinstance(node, ast.stmt)
                        and id(node) not in docstrings
                        and not isinstance(node, (ast.Global, ast.Nonlocal))):
                    inside[id(node)] = node
    return sorted(inside.values(), key=lambda node: (node.lineno, node.col_offset))


def _ran(node, lines: set, memo: dict) -> bool:
    """Whether a line of the statement's own (those of no statement or
    handler in it) ran, or a statement in it did."""
    if id(node) not in memo:
        children = [c for block in _BLOCKS for c in getattr(node, block, [])]
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for c in children:
            own -= set(range(c.lineno, c.end_lineno + 1))
        memo[id(node)] = bool(own & lines) or any(_ran(c, lines, memo) for c in children)
    return memo[id(node)]


def unexecuted(hit: set) -> list:
    """(file, line, text) of each statement inside a function of `SRC`
    with no line in `hit`."""
    out = []
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read()
        lines, memo = {line for f, line in hit if f == path}, {}
        text = source.splitlines()
        out += [(os.path.relpath(path, ROOT), node.lineno, text[node.lineno - 1].strip())
                for node in _statements(ast.parse(source)) if not _ran(node, lines, memo)]
    return out


def main(labels: list) -> int:
    hit = set()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with traced(hit):
        import byte_identity  # imports visbound
    runs = [(label, fields) for label, fields in byte_identity.configs()
            if not labels or any(a in label for a in labels)]
    if not runs:
        print(f"no config label contains any of {labels}", file=sys.stderr)
        return 1
    cli = byte_identity.cli
    with tempfile.TemporaryDirectory() as tmp:
        for k, (_, fields) in enumerate(runs):
            with traced(hit):
                cli.run(cli.RunConfig.from_dict({**fields, "seed": 0,
                                                 "out": os.path.join(tmp, str(k))}))
    missed = unexecuted(hit)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements in functions of src/visbound not executed by "
          f"{len(runs)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
