"""hjtoric: exact combinatorics of cyclic quotient resolutions, weighted
blowups and the circle of reduced spaces of a symplectic circle action.

``import hjtoric`` loads none of the package's modules.  Each public name
is imported from its module on first access and then kept here, so later
accesses are plain attribute reads (PEP 562, module ``__getattr__``).
"""

from importlib import import_module as _import_module

_HOMES = {
    "errors": ("DomainError", "EvaluationError", "StructureError", "ValidationError"),
    "hj": ("HJExpansion", "ext_gcd", "hj_eval", "hj_expand", "hj_reverse", "mod_inverse"),
    "homology": ("IntersectionLattice", "blow_down", "blow_up_at", "chain_contact_replay",
                 "empty_lattice", "exceptional_pair_criterion", "signature"),
    "resolution": ("Chain", "CyclicSingularity", "resolve_cyclic", "same_resolution",
                   "type_equivalent"),
    "blowup": ("BlowupConfig", "McDuffSequence", "cross_check", "cut_chords", "fulton_config",
               "mcduff_sequence", "weighted_blowdown"),
    "circle": ("FixedPointDatum", "GeneralizedCover", "ReducedSpaceState", "RunResult",
               "build_cover", "cross_level", "initial_state", "run_loop"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
