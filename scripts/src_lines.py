#!/usr/bin/env python3
"""Source lines of the visbound package by kind, per file and in total:

    python3 scripts/src_lines.py [directory]

Every line of each `.py` file under the directory (`src/visbound` next to
this script by default) counts once, as the first kind that fits:
docstring (a line of a string that is the first statement of the module,
a class or a function), blank, comment (a line holding only a comment),
or code.  So each file's four counts add up to its `wc -l`.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict:
    """The lines of one file's `source` by kind."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif number in comment and text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    top = args[0] if args else os.path.join(ROOT, "src", "visbound")
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(top)
                   for f in files if f.endswith(".py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<28}{'total':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{os.path.relpath(path, top):<28}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<28}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
