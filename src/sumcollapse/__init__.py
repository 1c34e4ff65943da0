"""Verification toolkit for sumset-collapse relations over the integers and
finite residue rings: exact removal certificates for the odd integers minus
finitely many odd composites,
windowed sumset comparisons, a layered classification of odd composites by
prime-shift reachability, and exhaustive ground truth in Z/mZ.

The namespace is lazy (PEP 562): ``import sumcollapse`` imports no submodule
and no numpy, and a name below imports its submodule on first access.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "collapse": (
        "DecompositionRecord",
        "FactorStats",
        "PairSweepReport",
        "PartitionRecord",
        "check_fp",
        "check_relation",
        "composite_removal_check",
        "decompositions",
        "euclid_chain_composites",
        "factor_stats",
        "gap_subsequence_check",
        "k_partitions",
        "parameter_uniqueness_report",
        "prefix_removal_cascade",
        "prime_surplus_hypothesis",
        "primorial_odd_products",
        "progression_removal_check",
        "relation_parts",
        "shifted_composite_pair_sweep",
    ),
    "finite_ring": (
        "RelationTableEntry",
        "ZmSubset",
        "optimal_weight_set",
        "relation_table",
        "relation_table_rows",
        "zm_closure",
        "zm_expansion_family",
        "zm_optimal_subsets",
        "zm_product_witness",
        "zm_quotient_check",
        "zm_reduction_chain",
        "zm_reduction_family",
        "zm_relation",
        "zm_sumset",
        "zm_unit_group_check",
    ),
    "intsets": (
        "WindowSet",
        "dilation",
        "iterated_sumset",
        "pair_sum_cover_decision",
        "restrict",
        "sumset_equal_window",
    ),
    "setexpr": (
        "FiniteSet",
        "IntRange",
        "OddComposites",
        "Primes",
        "Progression",
        "RoughOdd",
        "SetExpr",
        "Stratum",
        "Union",
        "as_set_expr",
        "parse_set_expr",
    ),
    "sieve": ("CompositeIndex", "PrimeTable", "is_rough"),
    "strata": (
        "StrataTable",
        "compute_strata",
        "nfold_all_integers_check",
        "nfold_collapse_check",
        "rough_pair_cover_evidence",
        "verify_absorption",
        "verify_partition",
    ),
    "verdict": ("RelationVerdict", "Status"),
}
_SUBMODULES = ("battery", "cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, which -X importtime reports
    # (importlib.import_module would fold the module into its importer's time)
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
