"""hjtoric: exact combinatorics of cyclic quotient resolutions, weighted
blowups and the circle of reduced spaces of a symplectic circle action."""

from types import ModuleType as _ModuleType

from .errors import DomainError, EvaluationError, StructureError, ValidationError
from .hj import HJExpansion, ext_gcd, hj_eval, hj_expand, hj_reverse, mod_inverse
from .homology import (
    IntersectionLattice,
    blow_down,
    blow_up_at,
    chain_contact_replay,
    empty_lattice,
    exceptional_pair_criterion,
    signature,
)
from .resolution import (
    Chain,
    CyclicSingularity,
    resolve_cyclic,
    same_resolution,
    type_equivalent,
)
from .blowup import (
    BlowupConfig,
    McDuffSequence,
    cross_check,
    cut_chords,
    fulton_config,
    mcduff_lattice,
    mcduff_sequence,
    weighted_blowdown,
)
from .circle import (
    FixedPointDatum,
    GeneralizedCover,
    ReducedSpaceState,
    RunResult,
    area,
    build_cover,
    cross_level,
    initial_state,
    run_loop,
    validate,
)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
