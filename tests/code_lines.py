"""Code lines per module of a package directory and in total: lines holding
a token other than a comment, a blank or a docstring (a string that is a
whole statement).  Run as  python tests/code_lines.py src/psiest"""

import io, pathlib, sys, tokenize as T
START = {T.ENCODING, T.NEWLINE, T.INDENT, T.DEDENT}
total = 0
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
    toks = [t for t in T.tokenize(io.BytesIO(path.read_bytes()).readline)
            if t.type not in (T.COMMENT, T.NL)]
    lines = set()
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        docstring = (tok.type == T.STRING and prev.type in START
                     and nxt.type == T.NEWLINE)
        if tok.type not in START | {T.ENDMARKER} and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    total += len(lines)
    print(f"{len(lines):6d}  {path.name}")
print(f"{total:6d}  total")
