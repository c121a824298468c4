"""The value types behave as the frozen dataclasses they replaced.

Each package value of the corpus is copied, field by field and nested
values included, into its twin from ``twins.py``; the two must agree on
``==``, ``hash``, ``repr``, ``dataclasses.replace``, ``fields``, ``asdict``,
``pprint.pformat``, pickling, copying, ``match`` and refused writes.
"""

import copy
import dataclasses
import pickle
import pprint
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import twins
from hjtoric import _value
from hjtoric.blowup import fulton_config, mcduff_sequence
from hjtoric.circle import (FixedPointDatum, build_cover, cross_level, initial_state, run_loop)
from hjtoric.errors import DomainError
from hjtoric.hj import HJExpansion, hj_expand, hj_reverse
from hjtoric.homology import add_class, chain_contact_replay
from hjtoric.resolution import Chain, CyclicSingularity, chain_from_terms, resolve_cyclic

TWINS = {name: getattr(twins, name) for name in (
    "HJExpansion", "CyclicSingularity", "Chain", "ChainContactReplay", "BlowupConfig",
    "McDuffSequence", "FixedPointDatum", "GeneralizedCover", "RunContext", "Instance",
    "ReducedSpaceState", "RunResult")}


def twin_of(value):
    """``value`` with every package value in it replaced by its twin."""
    if isinstance(value, _value.Value):
        fields = [twin_of(getattr(value, n)) for n in type(value).__match_args__]
        return TWINS[type(value).__name__](*fields)
    if isinstance(value, tuple):
        return tuple(twin_of(v) for v in value)
    return value


def data(*points):
    return [FixedPointDatum(*point) for point in points]


def corpus() -> list:
    """Values of all twelve types, each built twice so that equal values
    are distinct objects too."""
    values = []
    for _ in range(2):
        pair = data(("0", 1, 2, 1), ("1/2", -1, 2, 1))
        nested = data(("1/10", 1, 7, 4), ("3/10", 1, 5, 2), ("6/10", -1, 5, 2),
                      ("8/10", -1, 7, 4, None))
        values += [hj_expand(7, 3), hj_reverse(hj_expand(7, 3)), hj_expand(1, 0),
                   HJExpansion(5, 2, (3, 2)), CyclicSingularity(7, 2, 3), CyclicSingularity(1, 0, 0),
                   resolve_cyclic(CyclicSingularity(13, 1, 8)), chain_from_terms((), "Z"),
                   *pair, *nested, FixedPointDatum(Fraction(1, 3), 1, 2, 1, 0),
                   build_cover(pair, "1/8"), build_cover(nested, Fraction(1, 50)),
                   mcduff_sequence(4, 7), mcduff_sequence(1, 1)]
        for p, q in ((7, 4), (2, 1), (1, 1), (13, 8)):
            cfg = fulton_config(p, q, size="3/2" if p == 13 else 1)
            values.append(cfg)
            for via in (cfg.exceptional_label, cfg.chain_labels[0] if cfg.chain_labels else None):
                if via is not None:
                    lat = add_class(cfg.lattice(), "E'", -1, {via: 1})
                    values.append(chain_contact_replay(lat, "E'", cfg))
        state = initial_state(pair)  # at 1/4, with B1 alive from 0 to 1/2
        crossed = cross_level(cross_level(state, pair[1]), pair[0])
        values += [state, crossed, crossed.context, *crossed.instances]
        for points in (pair, nested):
            values += [initial_state(points).context, *initial_state(points).instances,
                       run_loop(points, 3, 1), run_loop(points, 2),
                       run_loop(points, 3, 5, tracked_independent=False)]
        values.append(run_loop([], 1))
    return values


def outcome(call, value):
    """``call(value)``, or the type of the exception it raised."""
    try:
        return call(value)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


VALUES = corpus()
KINDS = sorted({type(v).__name__ for v in VALUES})


def test_the_corpus_holds_every_value_type():
    assert KINDS == sorted(TWINS)


@pytest.mark.parametrize("kind", KINDS)
def test_equality_and_hash_agree_with_the_twins(kind):
    values = [v for v in VALUES if type(v).__name__ == kind]
    for a, b in product(values, repeat=2):
        ta, tb = twin_of(a), twin_of(b)
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
        assert hash(a) == hash(ta)
    assert any(a == b and a is not b for a, b in product(values, repeat=2))


@pytest.mark.parametrize("kind", KINDS)
def test_repr_pprint_and_fields_agree_with_the_twins(kind):
    for value in [v for v in VALUES if type(v).__name__ == kind]:
        twin = twin_of(value)
        assert repr(value) == repr(twin)
        for width in (80, 30):
            assert pprint.pformat(value, width=width) == pprint.pformat(twin, width=width)
        flags = lambda f: (f.name, f.default, f.init, f.repr, f.compare, f.hash, f.type)
        assert [flags(f) for f in dataclasses.fields(value)] == [flags(f) for f in
                                                                 dataclasses.fields(twin)]
        assert dataclasses.is_dataclass(value)
        assert outcome(dataclasses.asdict, value) == outcome(dataclasses.asdict, twin)
        assert type(value).__match_args__ == type(twin).__match_args__


@pytest.mark.parametrize("kind", KINDS)
def test_replace_agrees_with_the_twins(kind):
    """``replace`` with no change, and with each field taken from another
    value of the type where the package's checks accept the result."""
    values = [v for v in VALUES if type(v).__name__ == kind]
    for value, other in product(values, repeat=2):
        same = dataclasses.replace(value)
        assert same == value and same is not value and type(same) is type(value)
        for name in type(value).__match_args__:
            try:
                changed = dataclasses.replace(value, **{name: getattr(other, name)})
            except DomainError:
                continue
            assert twin_of(changed) == dataclasses.replace(
                twin_of(value), **{name: twin_of(getattr(other, name))})


@pytest.mark.parametrize("kind", KINDS)
def test_pickle_and_copy_round_trip(kind):
    for value in [v for v in VALUES if type(v).__name__ == kind]:
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(back) is type(value) and back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)


def first_two(value):
    """The first two fields of ``value`` through a positional class pattern."""
    box = SimpleNamespace(cls=type(value))
    match value:
        case box.cls(a, b):
            return a, b
    return None


@pytest.mark.parametrize("kind", KINDS)
def test_positional_match_agrees_with_the_twins(kind):
    for value in [v for v in VALUES if type(v).__name__ == kind]:
        assert twin_of(first_two(value)) == first_two(twin_of(value)) is not None


@pytest.mark.parametrize("kind", KINDS)
def test_writes_are_refused_as_by_the_twins(kind):
    value = next(v for v in VALUES if type(v).__name__ == kind)
    twin = twin_of(value)
    for name in (*type(value).__match_args__, "extra"):
        for write in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as ours:
                write(value)
            with pytest.raises(AttributeError) as theirs:
                write(twin)
            assert type(ours.value) is type(theirs.value) is dataclasses.FrozenInstanceError
            assert str(ours.value) == str(theirs.value)
    assert twin_of(value) == twin


@pytest.mark.parametrize("kind", KINDS)
def test_copy_replace_agrees_with_dataclasses_replace(kind):
    """``copy.replace`` (from Python 3.13) calls ``__replace__``, which the
    twins have from their decorator; before 3.13 the method is called."""
    replace = getattr(copy, "replace", lambda obj, **changes: obj.__replace__(**changes))
    values = [v for v in VALUES if type(v).__name__ == kind]
    for value, other in zip(values, values[1:] + values[:1]):
        for name in type(value).__match_args__:
            changes = {name: getattr(other, name)}
            try:
                want = dataclasses.replace(value, **changes)
            except DomainError:
                with pytest.raises(DomainError):
                    replace(value, **changes)
                continue
            got = replace(value, **changes)
            assert type(got) is type(want) and got == want and repr(got) == repr(want)


def test_keyword_and_default_arguments():
    assert FixedPointDatum(level="1/2", sign=-1, p=2, q=1) == FixedPointDatum("1/2", -1, 2, 1, None)
    assert FixedPointDatum("1/2", -1, 2, q=1, match=None).match is None
    for args, kwargs in [((), {}), (("1/2", -1, 2), {}), (("1/2", -1, 2, 1, None, 0), {}),
                         (("1/2", -1, 2, 1), {"p": 2}), (("1/2", -1, 2, 1), {"size": 1})]:
        with pytest.raises(TypeError, match="FixedPointDatum"):
            FixedPointDatum(*args, **kwargs)


@pytest.mark.parametrize("kind, fields", [
    (HJExpansion, (7, 4, [2, 4])), (Chain, ([-2, -3], ["a", "b"]))])
def test_checked_sequences_are_kept_as_the_tuples_their_checks_return(kind, fields):
    """A list argument is stored as a tuple: the value equals and hashes as
    the one built from tuples, and no field can be changed in place."""
    from_lists = kind(*fields)
    from_tuples = kind(*(tuple(f) if isinstance(f, list) else f for f in fields))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    for value in (from_lists, from_tuples):
        seqs = [getattr(value, n) for n, f in zip(kind.__match_args__, fields)
                if isinstance(f, list)]
        assert seqs and all(type(s) is tuple for s in seqs)
