#!/usr/bin/env python3
"""Source size of each module of src/axxz: all lines, and code lines.

All lines is what `wc -l` counts. Code lines leave out blank lines, comment
lines and the lines of module, class and function docstrings, so deleting
comments does not show up as a smaller program.

    python scripts/source_size.py            # the package next to this script
    python scripts/source_size.py --src DIR  # any directory of .py files
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines holding a token that is not layout or comment, minus docstring lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src" / "axxz")
    args = ap.parse_args()

    total_all = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(args.src.glob("*.py")):
        text = path.read_text()
        n_all, n_code = text.count("\n"), code_lines(text)
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16} {n_all:>6} {n_code:>6}")
    print(f"{'total':<16} {total_all:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
