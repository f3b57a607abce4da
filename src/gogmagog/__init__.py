"""Alternating sign matrices, totally symmetric self-complementary plane
partitions, their triangle encodings, the statistic-preserving permutation
bijection, exhaustive enumeration, and the partial orders these objects
carry.

The submodules and the names below are imported on first access (PEP 562),
so that a command imports only the modules it runs."""

import sys

_EXPORTS = {
    "bijections": "convert permutation_to_boolean",
    "enumeration": "FamilyId count generate",
    "poset": "Poset",
    "statistics": "avoids distribution inversion_number object_statistics",
    "triangles": "Asm BooleanTriangle FundamentalDomain MagogTriangle MonotoneTriangle NilpNest "
    "Permutation PlanePartition expand_fundamental fundamental_domain from_json to_json validate_tsscpp",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("bijections", "claims", "enumeration", "orders", "poset", "statistics", "triangles")
__all__ = [*_SUBMODULES, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # as an import statement does, so -X importtime lists it
        return sys.modules[f"{__name__}.{name}"]
    if name in _OWNER:
        return getattr(__getattr__(_OWNER[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
