"""Exact verification of Hopf-Galois and Poisson structures on finitely
presented algebras: structure-map axioms, Poisson compatibility, Ore and
Poisson Ore extension criteria, and Poisson enveloping algebras, all over
exact coefficient fields."""

from .errors import (
    CharacteristicError,
    ConfluenceError,
    DegreeCapError,
    HgError,
    InputError,
    JobError,
)
from .fields import GF, QQ, field_from_spec
from .presentations import (
    AlgebraPresentation,
    Element,
    GeneratorSymbol,
    RewriteRule,
    transport_element,
    word_str,
)
from .tensors import OP, PLAIN, TensorElement
from .maps import GeneratorMap, check_map_respects_relations, compose
from .reports import CheckEntry, VerificationReport
from .hopf_galois import (
    MU_SIGNATURE,
    GroupLikeResult,
    HopfGaloisStructure,
    HopfStructure,
    check_hopf,
    check_hopf_galois,
    galois_to_hopf,
    hopf_structure,
    hopf_to_galois,
    is_grouplike,
    mu_map,
    pushforward,
)
from .poisson import (
    PoissonHopfGaloisStructure,
    PoissonHopfStructure,
    PoissonStructure,
    check_poisson,
    check_poisson_hg,
    check_poisson_hopf,
    poisson_pushforward,
    tensor_bracket,
    triple_bracket,
)
from .ore import (
    OreData,
    PoissonOreData,
    assemble_ore,
    assemble_poisson_ore,
    build_ore,
    build_poisson_ore,
    check_thm28,
    check_thm44,
)
from .envelope import (
    EnvelopePresentation,
    TripleEnvelope,
    build_envelope,
    check_lemma55,
    check_thm59,
    relation_instance_report,
)

__version__ = "0.1.0"
