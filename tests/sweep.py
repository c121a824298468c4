"""The swept byte-identity corpus ``golden/sweep.json`` and its generator.

Each case is one ``hjtoric.cli.main`` argv, stored as one string split at
spaces, and its stdin (None if it reads none), stored with the exit code
and the byte length and SHA-256 of what it printed to stdout.  The cases
are seeded and fixed:

* ``hj`` over every 0 <= k <= m <= 22, and ``resolve`` over every
  0 <= p, q <= r <= 7, inputs that exit 2 included;
* ``equiv`` on seeded (r, q1, q2), both unoriented and oriented;
* ``blowup`` for (1, 1) and every coprime p > q with p <= 40 in JSON, and
  in SVG for p <= 12, with a few sizes and scales;
* ``signature`` of config lattices (p <= 12), seeded forests and seeded
  forms with cycles and zero diagonals;
* ``simulate`` on seeded balanced actions, tracked and untracked, with and
  without explicit matches, eps and a base, and on nested and chained
  actions of up to 64 pairs;
* perfbench's cli corpus, each file input read from stdin instead.

The test runs the stored cases in-process.  Run from the repository root::

    PYTHONPATH=src python tests/sweep.py write      # rebuild golden/sweep.json
    PYTHONPATH=src python tests/sweep.py diff REV   # each changed case's first
                                                    # differing line against git REV

``write`` records the output of the checked-out source, so a deliberate
change of output rewrites the corpus in the same change, as for
``golden/cli.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden" / "sweep.json"
WEIGHTS = ((1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (7, 4), (8, 3), (13, 8))


def run(argv, stdin):
    """(exit code, stdout) of ``cli.main(argv)`` with ``stdin`` as its input."""
    from hjtoric.cli import main

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def digest(code, stdout) -> list:
    data = stdout.encode()
    return [code, len(data), hashlib.sha256(data).hexdigest()]


def _flags(name, **values):
    return [name, *(x for k, v in values.items() for x in (f"--{k}", str(v)))]


def _arith():
    for m in range(23):
        for k in range(m + 1):
            yield _flags("hj", m=m, k=k), None
    for r in range(1, 8):
        for p in range(r + 1):
            for q in range(r + 1):
                yield _flags("resolve", r=r, p=p, q=q), None


def _equiv(rng):
    for _ in range(120):
        r = rng.randint(2, 40)
        argv = _flags("equiv", r=r, q1=rng.randint(1, r - 1), q2=rng.randint(1, r - 1))
        yield argv, None
        yield argv + ["--oriented"], None


def _blowups():
    yield _flags("blowup", p=1, q=1), None
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield _flags("blowup", p=p, q=q), None
    for p in range(1, 13):
        for q in range(1, p + 1):
            if gcd(p, q) == 1 and not p == q != 1:
                yield _flags("blowup", p=p, q=q, format="svg"), None
    for size, scale in (("1/3", 40), ("5/2", 7), ("7", 1), ("0", 40), ("-1/2", 40)):
        yield _flags("blowup", p=7, q=4, size=size), None
        yield _flags("blowup", p=5, q=3, size=size, format="svg", scale=scale), None


def _form(rng, n, cycles):
    """A seeded symmetric form on n classes: a random forest, plus ``cycles``
    extra edges, diagonals in [-4, 1] (zeros included)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-4, 1)
        if i and rng.random() < 0.8:
            j = rng.randrange(i)
            rows[i][j] = rows[j][i] = rng.choice((1, 1, -1, 2))
    for _ in range(cycles):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            rows[i][j] = rows[j][i] = rng.choice((1, -1))
    return rows


def _signatures(rng):
    from hjtoric.blowup import fulton_config

    dump = lambda obj: json.dumps(obj, separators=(",", ":"))
    for p in range(1, 13):
        for q in range(1, p + 1):
            if gcd(p, q) == 1 and not p == q != 1:
                yield ["signature", "-"], dump(fulton_config(p, q).lattice().to_json())
    for cycles in (0, 2):
        for _ in range(40):
            yield ["signature", "-"], dump({"pairing": _form(rng, rng.randint(1, 12), cycles)})


def _action(levels, *, loops=5, bound=None, tracked=True, matches=False, eps=None, base=None):
    """Simulation input: ``levels`` lists (level, sign, p, q, pair)."""
    points = []
    for level, sign, p, q, pair in levels:
        point = {"level": str(level), "sign": sign, "p": p, "q": q}
        if matches:
            point["match"] = next(i for i, other in enumerate(levels)
                                  if other[4] == pair and other[1] != sign)
        points.append(point)
    obj = {"fixed_points": points, "loops": loops}
    for key, value in (("bound", bound), ("eps", eps), ("base", base)):
        if value is not None:
            obj[key] = value if key == "bound" else str(value)
    if not tracked:
        obj["tracked_independent"] = False
    return json.dumps(obj, separators=(",", ":"))


def _simulations(rng):
    for n in range(120):
        k = rng.randint(1, 4)
        den = rng.randint(4 * k, 97)
        nums = rng.sample(range(den), 2 * k)
        levels = []
        for i in range(k):
            p, q = rng.choice(WEIGHTS)
            levels += [(Fraction(nums[2 * i], den), 1, p, q, i),
                       (Fraction(nums[2 * i + 1], den), -1, p, q, i)]
        rng.shuffle(levels)
        ordered = sorted(l[0] for l in levels)
        gap = min((b - a) % 1 or 1 for a, b in zip(ordered, ordered[1:] + ordered[:1]))
        yield ["simulate", "-"], _action(
            levels, loops=rng.randint(1, 8), bound=rng.choice((None, 0, 1, 2, 3, 6)),
            tracked=n % 3 != 2, matches=n % 2 == 1,
            eps=gap / 3 if n % 4 == 0 else None,
            base=Fraction(rng.randrange(den), den) if n % 5 == 0 else None)
    for k in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        p, q = WEIGHTS[k % len(WEIGHTS)]
        den = 4 * k
        nested = [(Fraction(i, den), 1, p, q, i) for i in range(k)]
        nested += [(Fraction(den - 1 - i, den), -1, p, q, i) for i in range(k)]
        chained = [(Fraction(2 * i + s, 2 * k), 1 - 2 * s, p, q, i)
                   for i in range(k) for s in (0, 1)]
        tracked = k % 2 == 1
        yield ["simulate", "-"], _action(nested, loops=4, tracked=tracked, matches=True)
        yield ["simulate", "-"], _action(chained, loops=4, tracked=not tracked,
                                         eps=Fraction(1, 8 * k))


def _perfbench():
    """perfbench's cli corpus, a file input read from stdin instead."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for case in workloads.Cli(Path(tmp), {}, 1.0).cases:
            argv, stdin = list(case.argv), case.stdin
            if case.name == "bad-signature-missing-file":
                argv[1] = "no-such-dir/missing.json"
            elif argv[-1].startswith(tmp):
                stdin = Path(argv[-1]).read_text()
                argv[-1] = "-"
            yield argv, stdin


def cases(perfbench: bool = True) -> list:
    """[argv, stdin] of every case, in corpus order; perfbench's come last."""
    rng = random.Random("hjtoric sweep")
    groups = [_arith(), _equiv(rng), _blowups(), _signatures(rng), _simulations(rng)]
    if perfbench:
        groups.append(_perfbench())
    return [[argv, stdin] for group in groups for argv, stdin in group]


def load() -> list:
    """[argv, stdin, exit code, stdout bytes, stdout SHA-256] of every case."""
    return [[argv.split(" "), *rest] for argv, *rest in json.loads(CORPUS.read_text())]


def write() -> None:
    lines = (json.dumps([" ".join(argv), stdin, *digest(*run(argv, stdin))], separators=(",", ":"))
             for argv, stdin in cases())
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def diff(rev: str) -> None:
    """Rerun each case whose digest changed, at ``rev`` in a fresh process,
    and print its argv and its first differing stdout line."""
    changed = []
    for argv, stdin, *want in load():
        code, out = run(argv, stdin)
        if digest(code, out) != want:
            changed.append((argv, stdin, out))
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        for argv, stdin, new in changed:
            old = subprocess.run([sys.executable, "-m", "hjtoric.cli", *argv], input=stdin or "",
                                 env=env, capture_output=True, text=True).stdout
            pairs = zip(old.splitlines() + [None], new.splitlines() + [None])
            line, (a, b) = next(((i, ab) for i, ab in enumerate(pairs, 1) if ab[0] != ab[1]),
                                (None, ("same stdout", "another exit code")))
            print(f"{argv} line {line}:\n  {rev}: {a!r}\n  now: {b!r}")
    print(f"{len(changed)} case(s) changed")


if __name__ == "__main__":
    if sys.argv[1:2] == ["write"]:
        write()
    elif sys.argv[1:2] == ["diff"] and len(sys.argv) == 3:
        diff(sys.argv[2])
    else:
        sys.exit(__doc__)
