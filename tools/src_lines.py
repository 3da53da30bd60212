"""Count each module's total lines and code lines in a source tree.

    python tools/src_lines.py [TREE]

TREE defaults to this repository's ``src``. Every ``*.py`` file under it gets
one line, "path total code", and the last line sums them. Code lines are the
physical lines that hold a token of the program: a line holding only a
comment, only blanks, or only part of a docstring (a statement that is a
string alone) does not count, and a multi-line expression counts every line
it spans.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize

# tokens that carry no program text of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    code = set()
    statement = []  # the tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(source.splitlines()), len(code)


def tree_counts(tree: str) -> list[tuple[str, int, int]]:
    """(path relative to ``tree``, total, code) per module, in path order."""
    rows = []
    for root, dirs, files in os.walk(tree):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    rows.append((os.path.relpath(path, tree), *count_lines(fh.read())))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    tree = args[0] if args else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                             os.pardir, "src")
    rows = tree_counts(tree)
    width = max([len(path) for path, _, _ in rows] + [len("total")])
    for path, total, code in rows:
        print(f"{path:<{width}} {total:>6} {code:>6}")
    print(f"{'total':<{width}} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
