"""The public boundary: what ``hjtoric.__all__`` lists, that the package
imports each name only on first use, and that every integer, rational,
label, container or package-object argument it takes refuses a malformed
value with a DomainError, never a TypeError, an AttributeError or a
result; and that each package name the README cites exists."""

import importlib
import inspect
import pkgutil
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fresh
import hjtoric
from hjtoric import (
    Chain,
    CyclicSingularity,
    FixedPointDatum,
    HJExpansion,
    IntersectionLattice,
    blow_down,
    blow_up_at,
    build_cover,
    chain_contact_replay,
    cross_check,
    cross_level,
    cut_chords,
    empty_lattice,
    exceptional_pair_criterion,
    ext_gcd,
    fulton_config,
    hj_eval,
    hj_expand,
    hj_reverse,
    initial_state,
    mcduff_sequence,
    mod_inverse,
    resolve_cyclic,
    run_loop,
    same_resolution,
    signature,
    type_equivalent,
    weighted_blowdown,
)
from hjtoric.errors import DomainError
from hjtoric.homology import add_class, lattice_from_parts
from hjtoric.svg import cut_diagram_svg


def pair():
    return [FixedPointDatum(0, 1, 2, 1), FixedPointDatum("1/2", -1, 2, 1)]


def two_exceptional():
    return lattice_from_parts(["a", "b"], {("a", "b"): 1}, {"a": -1, "b": -1})


def recipe(call, *values, none_ok=()):
    """``call(*values)`` is a valid call; ``values`` are its integer and
    rational arguments, and ``none_ok`` indexes those documented to
    default to None."""
    return call, values, frozenset(none_ok)


# One valid call per public callable, then the integer-taking functions
# outside ``__all__``, keyed by module and name.
RECIPES = {
    "Chain": recipe(lambda a, b: Chain((a, b), ("Z1", "Z2")), -2, -3),
    "CyclicSingularity": recipe(CyclicSingularity, 5, 1, 2),
    "FixedPointDatum": recipe(FixedPointDatum, "1/2", 1, 2, 1, 0, none_ok=(4,)),
    "HJExpansion": recipe(lambda m, k, a, b, c: HJExpansion(m, k, (a, b, c)), 7, 3, 3, 2, 2),
    "IntersectionLattice": recipe(
        lambda s, m, t, c, d: IntersectionLattice(["a", "b"], [[s, m], [m, t]], [c, d]),
        -1, 1, -2, 1, 0),
    "blow_down": recipe(lambda: blow_down(two_exceptional(), "a")),
    "blow_up_at": recipe(lambda: blow_up_at(two_exceptional(), ["a", "b"], "e")),
    "build_cover": recipe(lambda eps: build_cover(pair(), eps), "1/8"),
    "chain_contact_replay": recipe(lambda: chain_contact_replay(
        add_class(fulton_config(2, 1).lattice(), "E'", -1), "E'", fulton_config(2, 1))),
    "cross_check": recipe(cross_check, 7, 4),
    "cross_level": recipe(lambda: cross_level(initial_state(pair()), pair()[0])),
    "cut_chords": recipe(cut_chords, 4, 7),
    "empty_lattice": recipe(empty_lattice),
    "exceptional_pair_criterion": recipe(
        lambda: exceptional_pair_criterion(two_exceptional(), "a", "b")),
    "ext_gcd": recipe(ext_gcd, 7, 2),
    "fulton_config": recipe(fulton_config, 7, 4, "1/2"),
    "hj_eval": recipe(lambda a, b, c: hj_eval([a, b, c]), 3, 2, 2),
    "hj_expand": recipe(hj_expand, 7, 3),
    "hj_reverse": recipe(lambda: hj_reverse(hj_expand(7, 3))),
    "initial_state": recipe(lambda base: initial_state(pair(), base=base), "1/4", none_ok=(0,)),
    "mcduff_sequence": recipe(mcduff_sequence, 4, 7),
    "mod_inverse": recipe(mod_inverse, 3, 7),
    "resolve_cyclic": recipe(lambda: resolve_cyclic(CyclicSingularity(5, 1, 2))),
    "run_loop": recipe(lambda loops, bound, base: run_loop(pair(), loops, bound, base=base),
                       2, 3, "1/4", none_ok=(1, 2)),
    "same_resolution": recipe(
        lambda: same_resolution(CyclicSingularity(7, 1, 3), CyclicSingularity(7, 1, 5))),
    "signature": recipe(lambda s, m, t: signature([[s, m], [m, t]]), 0, 1, 0),
    "type_equivalent": recipe(
        lambda: type_equivalent(CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3))),
    "weighted_blowdown": recipe(
        lambda: weighted_blowdown(fulton_config(7, 4).lattice(), fulton_config(7, 4))),
    # outside __all__
    "homology.add_class": recipe(
        lambda s, m: add_class(two_exceptional(), "x", s, {"a": m}), -2, 1),
    "homology.lattice_from_parts": recipe(
        lambda m, s: lattice_from_parts(["a", "b"], {("a", "b"): m}, {"a": s}), 1, -2),
    "svg.cut_diagram_svg": recipe(cut_diagram_svg, 7, 4, 10),
}

EXEMPT = {
    "DomainError": "an exception type",
    "EvaluationError": "an exception type",
    "StructureError": "an exception type",
    "ValidationError": "an exception type; the run builds it from checked data",
    "BlowupConfig": "an output record of fulton_config, which checks the weights and size",
    "GeneralizedCover": "an output record of build_cover, which checks the levels and eps",
    "McDuffSequence": "an output record of mcduff_sequence, which checks the weights",
    "ReducedSpaceState": "an output record of initial_state, which checks the data and options",
    "RunResult": "an output record of run_loop, which checks the data and options",
}

BAD = (1.5, 3.0, True, "1e-3", [1], None)

PUBLIC = [
    "BlowupConfig", "Chain", "CyclicSingularity", "DomainError", "EvaluationError",
    "FixedPointDatum", "GeneralizedCover", "HJExpansion", "IntersectionLattice",
    "McDuffSequence", "ReducedSpaceState", "RunResult", "StructureError", "ValidationError",
    "blow_down", "blow_up_at", "build_cover", "chain_contact_replay", "cross_check",
    "cross_level", "cut_chords", "empty_lattice", "exceptional_pair_criterion", "ext_gcd",
    "fulton_config", "hj_eval", "hj_expand", "hj_reverse", "initial_state",
    "mcduff_sequence", "mod_inverse", "resolve_cyclic", "run_loop", "same_resolution",
    "signature", "type_equivalent", "weighted_blowdown",
]


def test_all_lists_the_public_names():
    assert hjtoric.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_the_object_of_its_home_module(name):
    value = getattr(hjtoric, name)
    assert value.__module__.startswith("hjtoric.")
    assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec(f"from hjtoric import {name}", namespace)
    assert namespace[name] is value


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(PUBLIC) <= set(dir(hjtoric))
    with pytest.raises(AttributeError, match="no_such_name"):
        hjtoric.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hjtoric import no_such_name", {})


def test_import_loads_no_module_and_each_name_loads_its_own():
    proc = fresh.python(
        "-c",
        "import sys\n"
        "import hjtoric\n"
        "print(sorted(m for m in sys.modules if m.startswith('hjtoric.')))\n"
        "from hjtoric import hj_expand\n"
        "print(sorted(m for m in sys.modules if m.startswith('hjtoric.')))\n"
        f"from hjtoric import {', '.join(PUBLIC)}\n"
        "names = {n: globals()[n] for n in hjtoric.__all__}\n"
        "print(all(getattr(sys.modules[v.__module__], n) is v for n, v in names.items()))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['hjtoric._value', 'hjtoric.errors', 'hjtoric.hj']", "True"]


def test_every_module_and_name_loads_with_the_standard_library_only():
    """``python -I -S`` puts no site-packages on the path, only the
    package's directory, so a third-party import anywhere fails here."""
    proc = fresh.python(
        "-I", "-S", "-c",
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hjtoric, hjtoric.cli, hjtoric.lattice2d, hjtoric.svg\n"
        "[getattr(hjtoric, n) for n in hjtoric.__all__]\n",
        fresh.PACKAGE_ROOT)
    assert proc.returncode == 0, proc.stderr


def test_all_lists_classes_and_functions_only():
    kinds = (inspect.isclass, inspect.isfunction)
    assert hjtoric.__all__ and not [name for name in hjtoric.__all__
                                    if not any(kind(getattr(hjtoric, name)) for kind in kinds)]


def test_every_public_name_has_a_recipe_or_an_exemption():
    public = set(hjtoric.__all__)
    recipes = {name for name in RECIPES if "." not in name}
    assert not public - recipes - EXEMPT.keys(), "name with neither a recipe nor an exemption"
    assert not (recipes | EXEMPT.keys()) - public, "recipe or exemption for a name not in __all__"
    assert not recipes & EXEMPT.keys()


@pytest.mark.parametrize("name", RECIPES)
def test_inexact_integers_and_rationals_are_domain_errors(name):
    """The valid call succeeds; the same call with any one of its integer or
    rational arguments replaced by a float, a bool, an exponent string, a
    list or None (where None is not the default) raises DomainError."""
    call, values, none_ok = RECIPES[name]
    call(*values)
    for i in range(len(values)):
        for bad in BAD:
            if bad is None and i in none_ok:
                continue
            args = values[:i] + (bad,) + values[i + 1:]
            with pytest.raises(DomainError):
                call(*args)


# One valid call per callable that takes a list or a dict, with those
# arguments only, keyed as RECIPES is.
CONTAINER_RECIPES = {
    "Chain": recipe(lambda labels: Chain((-2, -3), labels), ("Z1", "Z2")),
    "IntersectionLattice": recipe(lambda classes, rows: IntersectionLattice(classes, rows, (1, 0)),
                                  ("a", "b"), ((-1, 1), (1, -2))),
    "blow_up_at": recipe(lambda touched: blow_up_at(two_exceptional(), touched, "e"), ("a", "b")),
    "build_cover": recipe(lambda data: build_cover(data, "1/8"), pair()),
    "hj_eval": recipe(hj_eval, (3, 2, 2)),
    "initial_state": recipe(initial_state, pair()),
    "run_loop": recipe(lambda data: run_loop(data, 2), pair()),
    "signature": recipe(signature, ((0, 1), (1, 0))),
    # outside __all__
    "homology.add_class": recipe(lambda pairings: add_class(two_exceptional(), "x", -1, pairings),
                                 {"a": 1}, none_ok=(0,)),
    "homology.lattice_from_parts": recipe(lattice_from_parts,
                                          ("a", "b"), {("a", "b"): 1}, {"a": -2}),
}


def other_container(value):
    """The same entries in the other kind of container: a dict's values as
    a list, a list's entries as the keys of a dict."""
    return list(value.values()) if isinstance(value, dict) else dict.fromkeys(value)


@pytest.mark.parametrize("name", CONTAINER_RECIPES)
def test_malformed_containers_are_domain_errors(name):
    """The valid call succeeds; the same call with any one of its list or
    dict arguments replaced by None (where None is not the default), an
    int or the other kind of container raises a DomainError naming the
    container it wants."""
    call, values, none_ok = CONTAINER_RECIPES[name]
    call(*values)
    for i, value in enumerate(values):
        for bad in (None, 5, other_container(value)):
            if bad is None and i in none_ok:
                continue
            args = values[:i] + (bad,) + values[i + 1:]
            with pytest.raises(DomainError, match=r"\b(list|dict)\b"):
                call(*args)


# One valid call per callable that takes a package object (a lattice, a
# config, a singularity, an expansion or a state) or a bool flag, with
# those arguments only, keyed as RECIPES is.
OBJECT_RECIPES = {
    "blow_down": recipe(lambda lat: blow_down(lat, "a"), two_exceptional()),
    "blow_up_at": recipe(lambda lat: blow_up_at(lat, ["a", "b"], "e"), two_exceptional()),
    "chain_contact_replay": recipe(
        lambda lat, config: chain_contact_replay(lat, "E'", config),
        add_class(fulton_config(2, 1).lattice(), "E'", -1), fulton_config(2, 1)),
    "cross_level": recipe(cross_level, initial_state(pair()), pair()[0]),
    "exceptional_pair_criterion": recipe(
        lambda lat: exceptional_pair_criterion(lat, "a", "b"), two_exceptional()),
    "hj_reverse": recipe(hj_reverse, hj_expand(7, 3)),
    "resolve_cyclic": recipe(resolve_cyclic, CyclicSingularity(5, 1, 2)),
    "same_resolution": recipe(same_resolution, CyclicSingularity(7, 1, 3),
                              CyclicSingularity(7, 1, 5)),
    "type_equivalent": recipe(type_equivalent, CyclicSingularity(7, 1, 2),
                              CyclicSingularity(7, 1, 3), False),
    "weighted_blowdown": recipe(weighted_blowdown, fulton_config(7, 4).lattice(),
                                fulton_config(7, 4)),
    # outside __all__
    "homology.add_class": recipe(lambda lat: add_class(lat, "x", -1), two_exceptional()),
    "IntersectionLattice.direct_sum": recipe(lambda lat: empty_lattice().direct_sum(lat),
                                             two_exceptional()),
}


def other_object(value):
    """A package object of another kind than ``value``."""
    return hj_expand(7, 3) if isinstance(value, IntersectionLattice) else empty_lattice()


@pytest.mark.parametrize("name", OBJECT_RECIPES)
def test_malformed_objects_are_domain_errors(name):
    """The valid call succeeds; the same call with any one of its package
    objects replaced by None, an int or an object of another kind raises a
    DomainError naming the kind it wants."""
    call, values, _ = OBJECT_RECIPES[name]
    call(*values)
    for i, value in enumerate(values):
        for bad in (None, 5, other_object(value)):
            args = values[:i] + (bad,) + values[i + 1:]
            with pytest.raises(DomainError, match=type(value).__name__):
                call(*args)


# Each of these was accepted, or raised a TypeError, before every integer
# input, every class label and every flag went through its one
# rule in ``errors``.  A label that is not a str built a lattice that
# ``from_json`` cannot read back.
ONCE_ACCEPTED = {
    "ext_gcd-float": lambda: ext_gcd(7.5, 2),
    "mod_inverse-float": lambda: mod_inverse(3.0, 7),
    "hj_expand-bool": lambda: hj_expand(7, True),
    "hj_expand-float": lambda: hj_expand(7, 3.0),
    "hj_eval-float": lambda: hj_eval([2.5, 2]),
    "HJExpansion-bool": lambda: HJExpansion(7, True, (7,)),
    "CyclicSingularity-float": lambda: CyclicSingularity(5, 3.0, 2),
    "Chain-float": lambda: Chain((-2.5,), ("a",)),
    "add_class-float": lambda: add_class(empty_lattice(), "x", -1.5),
    "lattice_from_parts-float": lambda: lattice_from_parts(["a"], {}, {"a": 0.5}),
    "signature-fraction": lambda: signature([[Fraction(1, 2)]]),
    "cut_diagram_svg-float-scale": lambda: cut_diagram_svg(7, 4, 2.5),
    "add_class-int-label": lambda: add_class(empty_lattice(), 5, -1),
    "lattice_from_parts-int-label": lambda: lattice_from_parts([1], {}, {1: -1}),
    "blow_up_at-int-label": lambda: blow_up_at(two_exceptional(), ["a"], 5),
    "Chain-int-label": lambda: Chain((-2,), (1,)),
    "Chain-bytes-label": lambda: Chain((-2,), (b"Z1",)),
    "IntersectionLattice-int-label": lambda: IntersectionLattice([1], [[-1]], [1]),
    "IntersectionLattice-none-label": lambda: IntersectionLattice(["a", None], [[-1, 0], [0, -1]],
                                                                  [1, 1]),
    "type_equivalent-str-oriented": lambda: type_equivalent(
        CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3), "yes"),
    "type_equivalent-none-oriented": lambda: type_equivalent(
        CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3), None),
    "type_equivalent-int-oriented": lambda: type_equivalent(
        CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3), 1),
}


@pytest.mark.parametrize("call", ONCE_ACCEPTED.values(), ids=ONCE_ACCEPTED.keys())
def test_once_accepted_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()



# One call per public function or method that looks a class label up, with
# that label as its argument.  An unhashable label raised a TypeError.
LABEL_LOOKUPS = {
    "IntersectionLattice.neighbours": lambda label: two_exceptional().neighbours(label),
    "IntersectionLattice.pair-first": lambda label: two_exceptional().pair(label, "a"),
    "IntersectionLattice.pair-second": lambda label: two_exceptional().pair("a", label),
    "IntersectionLattice.self_intersection":
        lambda label: two_exceptional().self_intersection(label),
    "IntersectionLattice.c1_of": lambda label: two_exceptional().c1_of(label),
    "IntersectionLattice.is_exceptional": lambda label: two_exceptional().is_exceptional(label),
    "blow_down": lambda label: blow_down(two_exceptional(), label),
    "blow_up_at": lambda label: blow_up_at(two_exceptional(), ["a", label], "e"),
    "exceptional_pair_criterion-first":
        lambda label: exceptional_pair_criterion(two_exceptional(), label, "b"),
    "exceptional_pair_criterion-second":
        lambda label: exceptional_pair_criterion(two_exceptional(), "a", label),
    "chain_contact_replay": lambda label: chain_contact_replay(
        add_class(fulton_config(2, 1).lattice(), "E'", -1), label, fulton_config(2, 1)),
}


@pytest.mark.parametrize("call", LABEL_LOOKUPS.values(), ids=LABEL_LOOKUPS.keys())
def test_label_lookups_refuse_labels_that_are_not_strs(call):
    for bad in (5, ["E~"], {}):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("key", [5, "ab", ("a",), ("a", "b", "c")],
                         ids=["int", "str", "one-label", "three-labels"])
def test_lattice_from_parts_refuses_a_pair_key_that_is_not_two_labels(key):
    """A str key was read as its letters, and the others raised a
    TypeError or a bare unpacking ValueError."""
    with pytest.raises(DomainError, match=re.escape(repr(key))):
        lattice_from_parts(["a", "b", "c"], {key: 1}, {})


@pytest.mark.parametrize("pairs", [{("a", "b"): 1, ("b", "a"): 2}, {("a", "b"): 1, ("b", "a"): 0},
                                   {("b", "a"): 0, ("a", "b"): 1}],
                         ids=["disagree", "zero-last", "zero-first"])
def test_lattice_from_parts_refuses_a_pair_given_in_both_orders(pairs):
    """The last key won, unless its entry was zero, so the pairing depended
    on the order of the keys.  The error names the pair as first given."""
    first = next(iter(pairs))
    with pytest.raises(DomainError, match=re.escape(f"{first} is given in both orders")):
        lattice_from_parts(["a", "b"], pairs, {})


SUBMODULES = {m.name for m in pkgutil.iter_modules(hjtoric.__path__)}


def _resolve(dotted):
    """The object that ``dotted``, a name relative to ``hjtoric``, names."""
    head, *rest = dotted.split(".")
    obj = (importlib.import_module(f"hjtoric.{head}") if head in SUBMODULES
           else getattr(hjtoric, head))
    for name in rest:
        obj = getattr(obj, name)
    return obj


def test_every_package_name_the_readme_cites_resolves():
    """Each backticked ``hjtoric.<module>[.<name>...]``, ``<module>.<name>``
    (a submodule of the package) or ``<Name>.<attribute>`` (a name in
    ``hjtoric.__all__``) in the README imports and resolves, so a rename
    cannot leave the README citing a name that is gone."""
    heads = "|".join(sorted(SUBMODULES | set(hjtoric.__all__)))
    cited = re.findall(rf"`(?:hjtoric\.)?((?:{heads})(?:\.\w+)+)`|`hjtoric\.(\w+)`",
                       (Path(__file__).parents[1] / "README.md").read_text())
    names = {dotted or module for dotted, module in cited}
    assert len(names) > 20
    unresolved = []
    for dotted in sorted(names):
        try:
            _resolve(dotted)
        except AttributeError:
            unresolved.append(dotted)
    assert unresolved == []


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    """Each ``TRACED`` entry of ``perfbench/tracing.py`` resolves as
    ``Tracer.install`` resolves it: a module attribute, or a class attribute
    through the class's ``__dict__``.  The one exception is
    ``lattice2d.corner_cut``, which the tracer skips because no workload
    imports ``hjtoric.lattice2d``.  A traced name that is deleted or renamed
    fails here, not only in the benchmark's ``--trace 1`` runs."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing

    unresolved = set()
    for _, mod, attr in tracing.TRACED:
        module = importlib.import_module(f"hjtoric.{mod}")
        try:
            if "." in attr:
                cls_name, meth = attr.split(".")
                getattr(module, cls_name).__dict__[meth]
            else:
                getattr(module, attr)
        except (AttributeError, KeyError):
            unresolved.add((mod, attr))
    assert unresolved == {("lattice2d", "corner_cut")}
