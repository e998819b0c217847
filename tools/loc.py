"""Count the code lines of each module of the expbases package.

    python3 tools/loc.py

Reads ``src/expbases/*.py`` of the checkout this script sits in. A line
counts when a token of code lies on it; comments, blank lines and
docstrings (a statement that is only a string literal) do not count. A
string or bracket spanning several lines counts each line it spans.
Prints one line per module and the total.
"""

from __future__ import annotations

import glob
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "expbases")

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of lines of path that carry code."""
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokens:
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE and statement:
                # A statement of string literals alone is a docstring.
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(token)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        count = code_lines(path)
        total += count
        print(f"{os.path.basename(path):<20} {count:>6}")
    print(f"{'total':<20} {total:>6}")


if __name__ == "__main__":
    main()
