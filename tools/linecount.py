"""Print the physical and code-only line counts of each module of
src/padsmooth, then their total.

Code-only lines hold a token other than a comment and lie outside every
docstring (any string-literal statement, as `ast` finds them). Run from
anywhere: python tools/linecount.py
"""

import ast
import tokenize
from pathlib import Path

physical = code = 0
for path in sorted((Path(__file__).resolve().parents[1] / "src" / "padsmooth").glob("*.py")):
    text = path.read_text()
    docs = {line for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)}
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline)
                 if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                     tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)
                 for line in range(tok.start[0], tok.end[0] + 1)}
    counts = len(text.splitlines()), len(lines - docs)
    print(f"{path.name}: {counts[0]} physical, {counts[1]} code-only")
    physical += counts[0]
    code += counts[1]
print(f"src/padsmooth: {physical} physical lines, {code} code-only lines")
