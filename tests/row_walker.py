"""The per-row walker, kept as an oracle for the sparse text read.

This is how ``hjtoric.homology`` read the pairing of JSON text before one
split of the whole pairing replaced it: the rows split at ``]`` + separator
+ ``[``, then each row walked by one regex match per run of zeros and the
nonzero token after it, each run compared with a slice of zeros.  It shares
no code with the read it checks.  Its density guard counted ``"0"``
characters, which a token such as ``10`` also holds; the read now counts
tokens, so a caller applies that guard to what this walker returns.
"""

import re

_GAP = {s: re.compile(f"([0{s}]*)(-?[1-9][0-9]*|)").match for s in (",", ", ")}  # zeros, an int


def text_rows(text, i) -> tuple[list, int]:
    """The pairing at ``text[i]`` as ``{column: nonzero}`` rows and the index
    past it, if ``json.dumps`` could have written it without ``indent``
    (items split by "," or ", ") and it is sparse; otherwise a ValueError,
    before any per-row work if the text is not so spaced or too dense.  A
    run of zeros is skipped at C speed and compared with ``zeros``; a token
    matches only as ``str`` writes an int, else as "" for ``int`` to refuse
    (not ``-0``, ``01``, ``+1``, ``1_0``, " 1", non-ASCII digits)."""
    if not text.startswith("[[", i) or (end := text.find("]]", i)) < 0:
        raise ValueError("not a pairing as json.dumps writes one")
    sep = ", " if text.startswith("], [", text.find("]", i)) else ","
    rows = text[i + 2:end].split("]" + sep + "[")
    n, w, gap = len(rows), len(sep) + 1, _GAP[sep]
    if 20 * (n * n - text.count("0", i, end)) > n * n + 4096:  # 5% nonzero: json.loads is faster
        raise ValueError("a dense pairing")
    zeros = ("0" + sep) * n  # k zeros: k*w chars, or k*w - w + 1 at the row's end
    out = []
    for s in rows:
        row, col, at, stop = {}, 0, 0, len(s)
        while True:  # a run of zeros, then a nonzero token or the row's end
            m = gap(s, at)
            e, c = m.span(2)
            if (e - at) % w != (e == stop) or s[at:e] != zeros[:e - at]:
                raise ValueError("a run of zeros not as json.dumps writes one")
            col -= (at - e) // w  # the run's zeros, rounded up
            if e == stop:
                break
            row[col] = int(m[2])
            col += 1
            if c == stop or not s.startswith(sep, c):
                break
            at = c + len(sep)
        if col != n or c != stop:
            raise ValueError("a row of another length")
        out.append(row)
    return out, end + 2
