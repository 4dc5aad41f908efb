"""Cactus-group actions on highest-weight words via growth diagrams.

The package has three layers: exact q-arithmetic and Hecke seminormal
matrices (qalgebra, hecke), the lattice machinery of weights, crystals,
local moves and growth diagrams (weights, crystal, words, cactus, growth,
windows), and independent classical tableau algorithms used as
cross-checks (oracles).  The cli module, with commands, binds everything
into a command-line tool.

`import cactusgrowth` loads no layer: each name of `__all__` is looked up
in its submodule on first access (PEP 562), so a program pays only for
the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "weights": ("CartanContext", "Weight", "Partition", "dom_w", "is_dominant"),
    "words": ("HighestWeightWord", "StepKind", "complete_cell", "tau", "commutor_prefix",
              "word_from_corners", "syt_to_word", "word_to_syt"),
    "cactus": ("CactusGen", "CactusWord", "TauGen", "perm_image", "reduce_to_s1q", "parse_cactus_word"),
    "oracles": ("conjugate", "strip_check"),
    "growth": ("evacuation", "promotion", "act", "build_cylinder", "wall_cross"),
    "windows": ("cylinder_from_path", "complete_rectangle"),
    "crystal": ("Crystal", "build_minuscule", "tensor", "tensor_power", "decompose"),
    "qalgebra": ("LaurentPoly", "RationalFunction", "QMatrix", "q_int"),
    "hecke": ("SeminormalRep", "u_matrix", "t_matrix", "tau_matrix", "jm_matrix", "sigma_vv", "cactus_matrix"),
}
# exported name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
