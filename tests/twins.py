"""The package's twelve value types as frozen dataclasses, kept as an oracle.

These are the package's value types, which derive from ``hjtoric._value.
Value``, declared with ``@dataclass(frozen=True)`` instead.  A twin has the
same name, fields and defaults, and no methods: ``tests/test_value.py``
copies a package value into its twin and checks that equality, hash, repr,
``dataclasses.replace``, ``fields``, ``pprint``, pickling, copying,
``match`` and writes behave alike.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HJExpansion:
    numerator: int
    residue: int
    terms: tuple[int, ...]


@dataclass(frozen=True)
class CyclicSingularity:
    order: int
    p: int
    q: int


@dataclass(frozen=True)
class Chain:
    self_intersections: tuple[int, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class ChainContactReplay:
    triggered: bool
    via: str | None
    contractions: tuple[str, ...]
    pair: tuple[str, str] | None
    pair_self_intersections: tuple[int, int] | None
    pair_product: int | None
    c1_sum: int | None


@dataclass(frozen=True)
class BlowupConfig:
    p: int
    q: int
    size: Fraction
    chain_p: Chain
    chain_q: Chain
    exceptional_label: str


@dataclass(frozen=True)
class McDuffSequence:
    p: int
    q: int
    multiplicities: tuple[int, ...]
    cut_directions: tuple[Vec, ...]
    flanks: tuple[tuple[int | None, int | None], ...]


@dataclass(frozen=True)
class FixedPointDatum:
    level: Fraction
    sign: int
    p: int
    q: int
    match: int | None = None


@dataclass(frozen=True)
class GeneralizedCover:
    levels: tuple[Fraction, ...]
    eps: Fraction
    u_arcs: tuple[tuple[Fraction, Fraction], ...]
    i_arcs: tuple[tuple[Fraction, Fraction], ...]
    relations: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RunContext:
    data: tuple[FixedPointDatum, ...]
    base: Fraction
    den: int
    arcs: tuple[int, ...]
    pair_of: tuple[int, ...]
    templates: tuple[BlowupConfig, ...]


@dataclass(frozen=True)
class Instance:
    uid: str
    pair: int
    config: BlowupConfig
    created: int
    dies: int | None


@dataclass(frozen=True)
class ReducedSpaceState:
    context: RunContext
    pos: int
    instances: tuple[Instance, ...] = ()
    counter: int = 0


@dataclass(frozen=True)
class RunResult:
    verdict: str
    ledger: tuple[Fraction, ...]
    loop_of_contradiction: int | None
    final_lattice: IntersectionLattice
    base: Fraction | None
    tracked_label: str | None
    bound: int | None
    message: str = ""
