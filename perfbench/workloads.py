"""The four benchmark workloads: seeded inputs, the job that is timed, the check.

Each workload yields a stream of at least ``count`` ``Job`` values from its
seed (same seed, same stream; a run times the first ``count``), runs one job
against the public API of ``hjtoric``, and verifies the job's output with the
benchmark's own arithmetic (``oracle``).  A verification returns ``OK``, ``KNOWN_DEFECT`` (the cli workload only: an
input the roadmap lists as mishandled, answered exactly as when the benchmark
was added), or a failure message.

The sizes of the inputs are stratified rather than drawn at random, and
the same for every seed: a fixed grid of long-replay weights, the uniform
pairs' cut counts at evenly spaced quantiles, the simulator's pair counts
and bounds from a fixed two-dimensional sequence with weights cycled from a
seeded start, fixed long simulator shapes with seeded loop counts, and
evenly spaced lattice sizes.  The seed draws the rest.  The jobs of a run
then sum to nearly the same work for every seed, so run-to-run spread comes
from the machine, not from how many expensive inputs a seed happened to draw.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import hjtoric
import oracle

OK = "ok"
KNOWN_DEFECT = "known defect"

GOLDEN = (math.sqrt(5) - 1) / 2
R2 = (0.7548776662466927, 0.5698402909980532)  # 1/g and 1/g^2, g the plastic number


@dataclass
class Job:
    kind: str
    data: object
    needs_configs: int = 0  # weighted-blowup configs the job asks for
    needs_cuts: int = 0  # corner cuts one replay of the job's weights needs


def spread_sizes(rng: random.Random, lo: int, hi: int):
    """Integers in [lo, hi] from a golden-ratio sequence with a seeded start."""
    u = rng.random()
    while True:
        yield lo + int(u * (hi - lo + 1))
        u = (u + GOLDEN) % 1.0


def grid_sizes(x_lo: int, x_hi: int, y_lo: int, y_hi: int):
    """Pairs in [x_lo, x_hi] x [y_lo, y_hi] from the fixed R2 sequence, whose
    every prefix covers the rectangle evenly: the same pairs for every seed."""
    u = v = 0.5
    while True:
        yield x_lo + int(u * (x_hi - x_lo + 1)), y_lo + int(v * (y_hi - y_lo + 1))
        u = (u + R2[0]) % 1.0
        v = (v + R2[1]) % 1.0


def run_child(cmd, env: dict, cwd, stdin: str | None = None, limit: float = 120.0):
    """Run a child to completion: (exit code, stdout).

    A timer kills a child that outlives ``limit`` seconds.  A plain blocking
    wait, unlike ``subprocess.run(timeout=...)``, which polls in steps of up
    to 50 ms, ends the moment the child exits, so the wall time measured
    around this call is not rounded up."""
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env, cwd=cwd)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate(stdin)
    finally:
        timer.cancel()
    return proc.returncode, out


def coprime_below(rng: random.Random, r: int) -> int:
    while True:
        x = rng.randint(1, r - 1)
        if math.gcd(x, r) == 1:
            return x


# -- blowup-sweep ------------------------------------------------------------


class BlowupSweep:
    """Both resolution routes of seeded (p, q)-weighted blowups, p <= 256.

    A run is one sweep of ``count`` jobs in seeded order.  Three jobs in four
    are uniform pairs whose Euclid replay has at most MAX_UNIFORM_CUTS cuts,
    stratified by cut count: the sweep's cut counts are the same evenly spaced
    quantiles of all such pairs for every seed, and the seed draws each pair
    among those with its cut count.
    The rest are long-replay pairs with q in {1, 2, p - 1}, which need up to p
    cuts of size up to 4^(p - 1): the middle p of each of equal strata of
    [3, 256], with q set by the stratum.  The seed draws the uniform pairs
    and the order; the long-replay grid is the same for every seed, so every
    run does the same heavy work, and its slowest jobs, which set
    ``job_tail_ms``, are the same pairs whatever the seed.
    """

    name = "blowup-sweep"
    setup_import = "hjtoric"
    MAX_P = 256
    MAX_UNIFORM_CUTS = 30
    JOBS_PER_S = 11.2  # jobs per second of --seconds, the rate when the benchmark was added

    def __init__(self, seconds: float = 20.0):
        self.long = max(1, round(self.JOBS_PER_S * seconds / 4))
        self.count = 4 * self.long
        # the uniform pairs by cut count, which sets a job's cost to within about 15%
        self.by_cuts = {}
        for p in range(2, self.MAX_P + 1):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    cuts = len(oracle.euclid_multiplicities(p, q))
                    if cuts <= self.MAX_UNIFORM_CUTS:
                        self.by_cuts.setdefault(cuts, []).append((p, q))
        # cut counts at evenly spaced quantiles: every sweep has the same ones
        counts = sorted(c for c, pairs in self.by_cuts.items() for _ in pairs)
        self.uniform_cuts = [counts[int((i + 0.5) * len(counts) / (3 * self.long))]
                             for i in range(3 * self.long)]

    def jobs(self, seed: int):
        """The sweep of the seed: ``count`` jobs."""
        rng = random.Random(f"{self.name}:{seed}")
        width = (self.MAX_P - 3 + 1) / self.long
        sweep = []
        for i in range(self.long):
            p = 3 + int((i + 0.5) * width)
            if i % 3 == 0:
                q = 1
            elif i % 3 == 1:
                p -= p % 2 == 0  # q = 2 needs odd p
                q = 2
            else:
                q = p - 1
            sweep.append(("long", p, q))
        for cuts in self.uniform_cuts:
            p, q = rng.choice(self.by_cuts[cuts])
            sweep.append(("uniform", p, q))
        rng.shuffle(sweep)
        for kind, p, q in sweep:
            cuts = len(oracle.euclid_multiplicities(p, q))
            yield Job(kind, (p, q), needs_configs=1, needs_cuts=cuts)

    def run(self, job: Job):
        p, q = job.data
        cfg = hjtoric.fulton_config(p, q)
        seq = hjtoric.mcduff_sequence(q, p)
        agree = hjtoric.cross_check(p, q)
        lat = cfg.lattice()
        sig = hjtoric.signature(lat)
        rest = hjtoric.weighted_blowdown(lat, cfg)
        return cfg, seq, agree, lat, sig, rest

    def verify(self, job: Job, out) -> str:
        p, q = job.data
        cfg, seq, agree, lat, sig, rest = out
        terms_p, terms_q = oracle.config_terms(p, q)
        mult = oracle.euclid_multiplicities(p, q)
        n = len(terms_p) + len(terms_q) + 1
        if agree is not True:
            return f"cross_check({p}, {q}) is {agree!r}"
        if tuple(-s for s in reversed(cfg.chain_p.self_intersections)) != terms_p:
            return f"({p}, {q}): chain_p differs from p/(p-q)"
        if tuple(-s for s in reversed(cfg.chain_q.self_intersections)) != terms_q:
            return f"({p}, {q}): chain_q differs from q/((q-p) mod q)"
        if len(seq.cut_directions) != n or tuple(seq.multiplicities) != mult:
            return f"({p}, {q}): {len(seq.cut_directions)} cuts, expected {n}"
        if sum(m * m for m in seq.multiplicities) != p * q:
            return f"({p}, {q}): sum of squared multiplicities is not p*q"
        if tuple(seq.cut_directions[-1]) != (q, p):
            return f"({p}, {q}): last cut {seq.cut_directions[-1]}"
        if tuple(sig) != (0, n, 0) or len(lat) != n:
            return f"({p}, {q}): signature {sig}, expected (0, {n}, 0)"
        minus_one = [lat.classes[i] for i in range(n) if lat.pairing[i][i] == -1]
        if minus_one != ["E~"]:
            return f"({p}, {q}): (-1)-classes {minus_one}"
        if len(rest) != 0:
            return f"({p}, {q}): weighted_blowdown left {len(rest)} classes"
        return OK


# -- circle-sim --------------------------------------------------------------


WEIGHTS = ((1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (7, 4))


@dataclass
class Action:
    levels: tuple  # (level, sign, p, q, match) per fixed point
    loops: int
    bound: int
    tracked: bool
    eps: Fraction | None


def make_action(rng: random.Random, k: int, loops: int, bound: int,
                tracked: bool = True, with_eps: bool = False, weights=None) -> Action:
    """k matched pairs at distinct rational levels; explicit matches half the
    time.  The pairs' weights come from ``weights``, or at random."""
    den = rng.randint(4 * k, 997)
    nums = rng.sample(range(den), 2 * k)
    points = []
    for i in range(k):
        p, q = next(weights) if weights else rng.choice(WEIGHTS)
        points.append((Fraction(nums[2 * i], den), 1, p, q, i))
        points.append((Fraction(nums[2 * i + 1], den), -1, p, q, i))
    rng.shuffle(points)
    explicit = rng.random() < 0.5
    levels = []
    for level, sign, p, q, pair in points:
        match = None
        if explicit:
            match = next(j for j, other in enumerate(points)
                         if other[4] == pair and other[1] != sign)
        levels.append((level, sign, p, q, match))
    eps = None
    if with_eps:
        ls = sorted(l[0] for l in levels)
        gap = min(oracle.arc(ls[i], ls[(i + 1) % len(ls)]) for i in range(len(ls)))
        eps = gap / 3
    return Action(tuple(levels), loops, bound, tracked, eps)


def action_json(a: Action) -> str:
    obj = {
        "fixed_points": [
            dict({"level": str(l), "sign": s, "p": p, "q": q},
                 **({} if m is None else {"match": m}))
            for l, s, p, q, m in a.levels
        ],
        "loops": a.loops,
        "bound": a.bound,
    }
    if a.eps is not None:
        obj["eps"] = str(a.eps)
    if not a.tracked:
        obj["tracked_independent"] = False
    return json.dumps(obj)


def check_run(a: Action, verdict, ledger, loop, bound, base) -> str:
    """Verdict and ledger against the closed form of the tracked ray.

    The tracked class is born at the first blowup level after the base and
    grows at slope 1/(p*q), so its ledger is ((1 - d) + i)/(p*q) for loop
    i = 0, 1, ..., where d is the arc from the base to its level, and the
    verdict comes at loop bound + 1.
    """
    if not a.tracked:
        if verdict != "TRACKED_CLASS_DESTROYED":
            return f"untracked run ended {verdict}"
        return OK
    if verdict != "HAMILTONIAN" or bound != a.bound or loop != a.bound + 1:
        return (f"verdict {verdict} at loop {loop} (bound {bound}), "
                f"expected HAMILTONIAN at {a.bound + 1}")
    first = min((l for l in a.levels if l[1] == 1), key=lambda l: oracle.arc(base, l[0]))
    pq = first[2] * first[3]
    start = (1 - oracle.arc(base, first[0])) / pq
    expected = [start + Fraction(i, pq) for i in range(a.bound + 1)]
    if list(ledger) != expected:
        return (f"ledger {[str(x) for x in ledger]} is not the ray from {start} "
                f"with step 1/{pq}")
    return OK


def check_cover(a: Action, u_arcs, i_arcs) -> str:
    levels = sorted(l[0] for l in a.levels)
    n = len(levels)
    want_u = [(levels[i], levels[(i + 1) % n]) for i in range(n)]
    want_i = [(l - a.eps, l + a.eps) for l in levels]
    same = lambda got, want: len(got) == len(want) and all(
        oracle.arc(x, g) == 0 and oracle.arc(y, h) == 0 for (g, h), (x, y) in zip(got, want))
    if not (same(u_arcs, want_u) and same(i_arcs, want_i)):
        return "cover arcs differ from the level gaps and eps-neighbourhoods"
    overlap = oracle.max_overlap(list(u_arcs) + list(i_arcs))
    if overlap > 2:
        return f"cover has a point in {overlap} sets"
    return OK


class CircleSim:
    """One ``run_loop`` per job on a seeded balanced fixed-point set.

    A run is ``count`` jobs, in blocks of four, one of each kind in seeded
    order: plain (k in [2, 12] pairs, bound B in [1, 8], loops B + 2), long
    (60-100 loops, B = loops - 1), untracked (``tracked_independent=False``)
    and eps (a cover from ``build_cover`` as well).  The (k, B) of the plain,
    untracked and eps jobs follow one fixed sequence per kind, and their pair
    weights cycle through WEIGHTS from a seeded start, so a run's mix of sizes
    is the same for every seed; the seed draws the levels, the matches, the
    order and the loop counts of the long runs.  Long runs cycle through LONG_SHAPES fixed
    three-pair actions, each with its own seeded loop-count sequence: their
    cost is set by the loop count, so the slowest jobs of a run, which set
    ``job_tail_ms``, are the same few shapes at the same loop counts for
    every seed.
    """

    name = "circle-sim"
    setup_import = "hjtoric"
    KINDS = ("plain", "long", "untracked", "eps")
    LONG_SHAPES = 6
    JOBS_PER_S = 27.0  # jobs per second of --seconds, the rate when the benchmark was added

    def __init__(self, seconds: float = 20.0):
        self.count = len(self.KINDS) * max(1, round(self.JOBS_PER_S * seconds / len(self.KINDS)))
        rng = random.Random(f"{self.name}:long-shapes")  # fixed, like the cli corpus
        self.shapes = [make_action(rng, 3, 0, 0) for _ in range(self.LONG_SHAPES)]

    def jobs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = {kind: grid_sizes(2, 12, 1, 8) for kind in self.KINDS}
        start = rng.randrange(len(WEIGHTS))
        weights = {kind: itertools.cycle(WEIGHTS[start:] + WEIGHTS[:start]) for kind in self.KINDS}
        long_loops = [spread_sizes(rng, 60, 100) for _ in self.shapes]
        n_long = rng.randrange(self.LONG_SHAPES)
        while True:
            for kind in rng.sample(self.KINDS, len(self.KINDS)):
                if kind == "long":
                    n_long += 1
                    i = n_long % self.LONG_SHAPES
                    loops = next(long_loops[i])
                    a = dataclasses.replace(self.shapes[i], loops=loops, bound=loops - 1)
                else:
                    k, bound = next(sizes[kind])
                    a = make_action(rng, k, bound + 2, bound, tracked=kind != "untracked",
                                    with_eps=kind == "eps", weights=weights[kind])
                data = tuple(hjtoric.FixedPointDatum(l, s, p, q, m) for l, s, p, q, m in a.levels)
                yield Job(kind, (a, data))

    def run(self, job: Job):
        a, data = job.data
        cover = hjtoric.build_cover(data, a.eps) if a.eps is not None else None
        res = hjtoric.run_loop(data, a.loops, a.bound, tracked_independent=a.tracked)
        return res, cover

    def verify(self, job: Job, out) -> str:
        a, _ = job.data
        res, cover = out
        status = check_run(a, res.verdict, res.ledger, res.loop_of_contradiction,
                           res.bound, res.base)
        if status == OK and a.eps is not None:
            status = check_cover(a, cover.u_arcs, cover.i_arcs)
        return status


# -- lattice files -----------------------------------------------------------


@dataclass
class LatticeText:
    text: str
    size: int
    signature: tuple[int, int, int]
    singularities: tuple = ()  # (r, p, q) of each chain block


def make_lattice(rng: random.Random, n: int, chain_cap: int = 30) -> LatticeText:
    """A direct sum of chain, config, hyperbolic and zero blocks, n classes,
    basis order shuffled.  Its signature is the sum of the block signatures:
    chains and blowup configs are negative definite, [[0,1],[1,0]] is (1,1,0)
    and a zero class is (0,0,1)."""
    labels, diag, edges, singularities = [], [], [], []
    b_plus = b_minus = b_zero = n_chains = 0

    while len(labels) < n:
        room = n - len(labels)
        t = rng.random()
        j = n_chains + len(labels)
        if t < 0.45:
            r = rng.randint(2, 10 ** 6)
            p, q = coprime_below(rng, r), coprime_below(rng, r)
            k = oracle.resolution_residue(r, p, q)
            terms = oracle.cf_expand(r, k)
            if len(terms) > min(chain_cap, room):
                continue
            base = len(labels)
            singularities.append((r, p, q))
            labels.extend(f"R{j}.{i}" for i in range(len(terms)))
            diag.extend(-a for a in terms)
            edges.extend((base + i, base + i + 1) for i in range(len(terms) - 1))
            n_chains += 1
            b_minus += len(terms)
        elif t < 0.70:
            p = rng.randint(2, 60)
            q = coprime_below(rng, p)
            terms_p, terms_q = oracle.config_terms(p, q)
            size = 1 + len(terms_p) + len(terms_q)
            if size > room:
                continue
            base = len(labels)
            labels.append(f"W{j}.E~")
            diag.append(-1)
            for name, terms in (("Zp", terms_p), ("Zq", terms_q)):
                start = len(labels)
                stored = tuple(reversed(terms))  # first stored class meets E~
                labels.extend(f"W{j}.{name}{i + 1}" for i in range(len(stored)))
                diag.extend(-a for a in stored)
                if stored:
                    edges.append((base, start))
                edges.extend((start + i, start + i + 1) for i in range(len(stored) - 1))
            b_minus += size
        elif t < 0.88:
            if room < 2:
                continue
            base = len(labels)
            labels += [f"H{j}.a", f"H{j}.b"]
            diag += [0, 0]
            edges.append((base, base + 1))
            b_plus += 1
            b_minus += 1
        else:
            labels.append(f"O{j}")
            diag.append(0)
            b_zero += 1
    perm = list(range(n))
    rng.shuffle(perm)  # perm[old] = new position
    rows = [[0] * n for _ in range(n)]
    for i, d in enumerate(diag):
        rows[perm[i]][perm[i]] = d
    for a, b in edges:
        rows[perm[a]][perm[b]] = rows[perm[b]][perm[a]] = 1
    classes = [None] * n
    for i, l in enumerate(labels):
        classes[perm[i]] = l
    obj = {"classes": classes, "pairing": rows}
    if rng.random() < 0.5:
        obj["c1"] = [2 + rows[i][i] for i in range(n)]
    text = json.dumps(obj, separators=(",", ":"))
    return LatticeText(text, n, (b_plus, b_minus, b_zero), tuple(singularities))


class LatticeRead:
    """The read path of ``homology`` and the ``hj``/``resolution`` arithmetic.

    Each job is one seeded lattice of SIZES classes, a direct sum of chain,
    weighted-blowup config, hyperbolic and zero blocks (``make_lattice``) in
    shuffled basis order, given as JSON text.  The job resolves each chain
    block's singularity with ``resolve_cyclic``, compares it with a partner
    of the same order with ``same_resolution`` and ``type_equivalent``, then
    parses the lattice with ``IntersectionLattice.from_json`` and computes its
    ``signature``.  A run's class counts are the same evenly spaced points of
    SIZES for every seed, so the run's work is too; the seed draws the blocks,
    the partners and the order.  No blowup or blowdown is made.
    """

    name = "lattice-read"
    setup_import = "hjtoric"
    SIZES = (50, 400)
    JOBS_PER_S = 6.0  # jobs per second of --seconds, the rate when the benchmark was added

    def __init__(self, seconds: float = 20.0):
        self.count = max(1, round(self.JOBS_PER_S * seconds))

    def jobs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = self.SIZES
        while True:
            sizes = [lo + int((i + 0.5) * (hi - lo + 1) / self.count) for i in range(self.count)]
            rng.shuffle(sizes)
            for n in sizes:
                lat = make_lattice(rng, n)
                pairs = []
                for r, p, q in lat.singularities:
                    k = oracle.resolution_residue(r, p, q)
                    # the partner has the same chain, the reversed one, the
                    # mirrored type or a random one, in turn at random
                    k2 = rng.choice((k, pow(k, -1, r), (-k) % r, coprime_below(rng, r) if r > 2 else k))
                    p2 = coprime_below(rng, r) if r > 2 else 1
                    pairs.append(((r, p, q), (r, p2, k2 * p2 % r), rng.random() < 0.5))
                yield Job("lattice", (lat, tuple(pairs)))

    def run(self, job: Job):
        lat, pairs = job.data
        chains, same, equiv = [], [], []
        for a, b, oriented in pairs:
            s1, s2 = hjtoric.CyclicSingularity(*a), hjtoric.CyclicSingularity(*b)
            chains.append(hjtoric.resolve_cyclic(s1))
            same.append(hjtoric.same_resolution(s1, s2))
            equiv.append(hjtoric.type_equivalent(s1, s2, oriented))
        parsed = hjtoric.IntersectionLattice.from_json(lat.text)
        return chains, same, equiv, len(parsed), hjtoric.signature(parsed)

    def verify(self, job: Job, out) -> str:
        lat, pairs = job.data
        chains, same, equiv, size, sig = out
        if size != lat.size or tuple(sig) != lat.signature:
            return f"{lat.size}-class lattice read as {size} classes, signature {sig}, expected {lat.signature}"
        for chain, ((r, p, q), (_, p2, q2), oriented), s, e in zip(chains, pairs, same, equiv):
            k = oracle.resolution_residue(r, p, q)
            k2 = oracle.resolution_residue(r, p2, q2)
            terms = tuple(-x for x in chain.self_intersections)
            if terms != oracle.cf_expand(r, k) or oracle.cf_eval(terms) != (r, k):
                return f"chain of ({r}; {p}, {q}) is {terms}, expected the expansion of {r}/{k}"
            if oracle.cf_eval(terms[::-1]) != (r, pow(k, -1, r)):
                return f"reversed chain of ({r}; {p}, {q}) does not expand {r}/{k}^-1"
            if s != (k == k2 or k * k2 % r == 1):
                return f"same_resolution(({r}; {p}, {q}), ({r}; {p2}, {q2})) is {s}"
            if e != oracle.type_equivalent(r, k, k2, oriented):
                return f"type_equivalent(({r}; {p}, {q}), ({r}; {p2}, {q2}), {oriented}) is {e}"
        if len(chains) != len(pairs):
            return f"{len(chains)} chains resolved, expected {len(pairs)}"
        return OK


# -- cli ---------------------------------------------------------------------


@dataclass
class CliCase:
    name: str
    argv: tuple[str, ...]
    stdin: str | None = None
    check: object = None  # stdout -> status, for exit code 0
    expect: int = 0  # documented exit code
    seed_code: int | None = None  # exit code when the benchmark was added, for known defects
    needs_configs: int = 0
    needs_cuts: int = 0


def _json_check(fn):
    def check(stdout: str) -> str:
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return fn(obj)
    return check


def _blowup_check(p: int, q: int):
    terms_p, terms_q = oracle.config_terms(p, q)
    mult = oracle.euclid_multiplicities(p, q)
    n = len(terms_p) + len(terms_q) + 1

    @_json_check
    def check(obj) -> str:
        if obj["chain_p"] != [-a for a in terms_p] or obj["chain_q"] != [-a for a in terms_q]:
            return f"blowup {p} {q}: chains differ"
        if obj["mcduff"] != list(mult) or sum(m * m for m in obj["mcduff"]) != p * q:
            return f"blowup {p} {q}: multiplicities differ"
        if len(obj["cuts"]) != n or obj["cuts"][-1] != [q, p]:
            return f"blowup {p} {q}: cuts differ"
        lat = obj["lattice"]
        minus_one = [c for c, row, i in zip(lat["classes"], lat["pairing"], range(n))
                     if row[i] == -1]
        if obj["cross_check"] is not True or len(lat["classes"]) != n or minus_one != ["E~"]:
            return f"blowup {p} {q}: lattice or cross_check differs"
        return OK
    return check


def _svg_check(p: int, q: int):
    n = len(oracle.euclid_multiplicities(p, q))

    def check(stdout: str) -> str:
        try:
            root = ET.fromstring(stdout)
        except ET.ParseError as exc:
            return f"output is not SVG: {exc}"
        cuts = [e for e in root.iter("{http://www.w3.org/2000/svg}line") if e.get("class") == "cut"]
        if len(cuts) != n or not float(root.get("width")) > 0:
            return f"svg {p} {q}: {len(cuts)} cut lines, expected {n}"
        return OK
    return check


def _simulate_check(a: Action):
    @_json_check
    def check(obj) -> str:
        ledger = [Fraction(x) for x in obj["ledger"]]
        status = check_run(a, obj["verdict"], ledger, obj["loop_of_contradiction"],
                           obj["bound"], Fraction(obj["base"]))
        if status == OK and a.eps is not None:
            arcs = lambda key: [(Fraction(x), Fraction(y)) for x, y in obj["cover"][key]]
            status = check_cover(a, arcs("U"), arcs("I"))
        return status
    return check


def _fields_check(want: dict):
    @_json_check
    def check(obj) -> str:
        got = {k: obj.get(k) for k in want}
        return OK if got == want else f"fields {got} != {want}"
    return check


class Cli:
    """A fixed corpus of ``python -m hjtoric.cli`` invocations, one child at a
    time, in an order the seed reshuffles every pass.  The corpus covers every
    subcommand, malformed inputs the CLI already rejects, and the defect
    inputs the roadmap lists under "Baseline".  A run is ``count`` jobs, whole
    passes over the corpus."""

    name = "cli"
    setup_import = "hjtoric.cli"
    JOBS_PER_S = 4.8  # jobs per second of --seconds, the rate when the benchmark was added

    def __init__(self, work: Path, env: dict, seconds: float = 20.0):
        self.work = work
        self.env = env
        self.cli = None
        work.mkdir(parents=True, exist_ok=True)
        self.cases = self._corpus()
        self.count = len(self.cases) * max(1, round(self.JOBS_PER_S * seconds / len(self.cases)))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _file(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def _corpus(self) -> list[CliCase]:
        rng = random.Random("cli-corpus")  # fixed: the corpus does not depend on the seed
        readme = Action(((Fraction(0), 1, 2, 1, None), (Fraction(1, 2), -1, 2, 1, None)),
                        loops=5, bound=3, tracked=True, eps=Fraction(1, 8))
        k8 = make_action(rng, 8, loops=6, bound=4, with_eps=True)
        untracked = make_action(rng, 3, loops=4, bound=2, tracked=False)
        lat100 = make_lattice(rng, 100)
        two_point = ('{"fixed_points": [{"level": "0", "sign": 1, "p": 2, "q": 1%s}, '
                     '{"level": "1/2", "sign": -1, "p": 2, "q": 1%s}]%s}')
        sim = lambda name, text: ("simulate", self._file(name, text))
        sig = lambda name, text: ("signature", self._file(name, text))
        cases = [
            CliCase("simulate-readme", sim("readme.json", action_json(readme)),
                    check=_simulate_check(readme)),
            CliCase("simulate-k8-eps", sim("k8.json", action_json(k8)), check=_simulate_check(k8)),
            CliCase("simulate-untracked-stdin", ("simulate", "-"), stdin=action_json(untracked),
                    check=_simulate_check(untracked)),
            CliCase("signature-100", sig("lat100.json", lat100.text),
                    check=_fields_check(dict(zip(("b_plus", "b_minus", "b_zero"), lat100.signature)))),
            CliCase("signature-hyperbolic-stdin", ("signature", "-"), stdin='{"pairing": [[0,1],[1,0]]}',
                    check=_fields_check({"b_plus": 1, "b_minus": 1, "b_zero": 0})),
            CliCase("resolve-5-3-2", ("resolve", "--r", "5", "--p", "3", "--q", "2"),
                    check=_fields_check({"chain": [-2, -2, -2, -2], "k": 4, "alpha": 2})),
            CliCase("resolve-1009-7-100", ("resolve", "--r", "1009", "--p", "7", "--q", "100"),
                    check=_fields_check({"chain": [-a for a in oracle.cf_expand(
                        1009, oracle.resolution_residue(1009, 7, 100))],
                        "alpha": pow(7, -1, 1009)})),
            CliCase("hj-7-3", ("hj", "--m", "7", "--k", "3"),
                    check=_fields_check({"terms": [3, 2, 2], "reversed_terms": [2, 2, 3], "k_prime": 5})),
            CliCase("hj-1000003-12345", ("hj", "--m", "1000003", "--k", "12345"),
                    check=_fields_check({"terms": list(oracle.cf_expand(1000003, 12345)),
                                         "k_prime": pow(12345, -1, 1000003)})),
            CliCase("equiv-5-2-3", ("equiv", "--r", "5", "--q1", "2", "--q2", "3", "--oriented"),
                    check=_fields_check({"type_equivalent": True, "same_resolution": True})),
            CliCase("equiv-103-10-93", ("equiv", "--r", "103", "--q1", "10", "--q2", "93"),
                    check=_fields_check({"type_equivalent": oracle.type_equivalent(103, 10, 93, False),
                                         "same_resolution": oracle.cf_expand(103, 10) in (
                                             oracle.cf_expand(103, 93), oracle.cf_expand(103, 93)[::-1])})),
        ]
        # the four long-replay commands are the slowest group, large enough
        # that job_tail_ms falls inside it rather than on its edge
        for p, q in ((7, 4), (89, 55), (120, 1), (119, 118)):
            cuts = len(oracle.euclid_multiplicities(p, q))
            cases.append(CliCase(f"blowup-{p}-{q}", ("blowup", "--p", str(p), "--q", str(q)),
                                 check=_blowup_check(p, q), needs_configs=1, needs_cuts=cuts))
        for p, q in ((7, 4), (120, 1), (119, 118)):
            cuts = len(oracle.euclid_multiplicities(p, q))
            cases.append(CliCase(f"blowup-{p}-{q}-svg",
                                 ("blowup", "--p", str(p), "--q", str(q), "--format", "svg"),
                                 check=_svg_check(p, q), needs_configs=1, needs_cuts=cuts))
        cases += [  # malformed inputs the CLI already rejects with exit code 2
            CliCase("bad-simulate-json", sim("bad.json", '{"fixed_points": ['), expect=2),
            CliCase("bad-blowup-weights", ("blowup", "--p", "4", "--q", "2"), expect=2),
            CliCase("bad-hj-residue", ("hj", "--m", "7", "--k", "7"), expect=2),
            CliCase("bad-resolve-type", ("resolve", "--r", "6", "--p", "2", "--q", "1"), expect=2),
            CliCase("bad-signature-missing-file", ("signature", str(self.work / "missing.json")),
                    expect=2),
            CliCase("bad-argv", ("blowup", "--p", "7"), expect=2),
        ]
        cases += [  # ROADMAP "Baseline" defects: documented exit 2, seed_code when added
            CliCase("defect-signature-float", sig("float.json", '{"pairing": [[1.5,0],[0,-1]]}'),
                    expect=2, seed_code=0),
            CliCase("defect-signature-json", sig("broken.json", '{"pairing": [[0,1],[1,0]'),
                    expect=2, seed_code=1),
            CliCase("defect-signature-ragged", sig("ragged.json", '{"pairing": [[0,1],[1]]}'),
                    expect=2, seed_code=1),
            CliCase("defect-simulate-no-q", sim("noq.json", two_point.replace(', "q": 1%s', '', 1)
                                                % ("", "")), expect=2, seed_code=1),
            CliCase("defect-simulate-bound-str", sim("bound.json", two_point % ("", "", ', "bound": "3"')),
                    expect=2, seed_code=1),
            CliCase("defect-simulate-match-str",
                    sim("match.json", two_point % (', "match": "1"', ', "match": "0"', "")),
                    expect=2, seed_code=1),
            CliCase("defect-simulate-loops-bool", sim("loops.json", two_point % ("", "", ', "loops": true')),
                    expect=2, seed_code=0),
            CliCase("defect-blowup-svg-scale0",
                    ("blowup", "--p", "7", "--q", "4", "--format", "svg", "--scale", "0"),
                    expect=2, seed_code=0),
        ]
        return cases

    def jobs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for case in rng.sample(self.cases, len(self.cases)):
                yield Job(case.name, case, case.needs_configs, case.needs_cuts)

    def run(self, job: Job):
        case = job.data
        return run_child([sys.executable, "-m", "hjtoric.cli", *case.argv],
                         self.env, self.work, case.stdin)

    def run_in_process(self, job: Job):
        """The same invocation through ``hjtoric.cli.main``, stdout captured."""
        if self.cli is None:
            import hjtoric.cli
            self.cli = hjtoric.cli
        case = job.data
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(case.stdin or ""), io.StringIO(), io.StringIO()
        try:
            code = self.cli.main(list(case.argv))
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a real process with exit code 1
            code = 1
        finally:
            out = sys.stdout.getvalue()
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out

    def verify(self, job: Job, out) -> str:
        case = job.data
        code, stdout = out
        if code == case.expect:
            return case.check(stdout) if code == 0 else OK
        if case.seed_code is not None and code == case.seed_code:
            return KNOWN_DEFECT
        return f"{case.name}: exit code {code}, documented {case.expect}"


def make(name: str, work: Path, env: dict, seconds: float = 20.0):
    """The workload ``name``, sized to ``count`` jobs for a run of ``seconds``."""
    if name == "cli":
        return Cli(work, env, seconds)
    return {"blowup-sweep": BlowupSweep, "circle-sim": CircleSim,
            "lattice-read": LatticeRead}[name](seconds)
