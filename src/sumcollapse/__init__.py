"""Verification toolkit for sumset-collapse relations over the integers and
finite residue rings: exact removal certificates for the odd integers minus
finitely many odd composites,
windowed sumset comparisons, a layered classification of odd composites by
prime-shift reachability, and exhaustive ground truth in Z/mZ.
"""

from .collapse import (
    DecompositionRecord,
    FactorStats,
    PairSweepReport,
    PartitionRecord,
    check_fp,
    check_relation,
    composite_removal_check,
    decompositions,
    euclid_chain_composites,
    factor_stats,
    gap_subsequence_check,
    k_partitions,
    parameter_uniqueness_report,
    prefix_removal_cascade,
    prime_surplus_hypothesis,
    primorial_odd_products,
    progression_removal_check,
    relation_parts,
    shifted_composite_pair_sweep,
)
from .finite_ring import (
    RelationTableEntry,
    ZmSubset,
    optimal_weight_set,
    relation_table,
    relation_table_rows,
    zm_closure,
    zm_expansion_family,
    zm_optimal_subsets,
    zm_product_witness,
    zm_quotient_check,
    zm_reduction_chain,
    zm_reduction_family,
    zm_relation,
    zm_sumset,
    zm_unit_group_check,
)
from .intsets import (
    WindowSet,
    dilation,
    iterated_sumset,
    pair_sum_cover_decision,
    restrict,
    sumset_equal_window,
)
from .setexpr import (
    FiniteSet,
    IntRange,
    OddComposites,
    Primes,
    Progression,
    RoughOdd,
    SetExpr,
    Stratum,
    Union,
    as_set_expr,
    parse_set_expr,
)
from .sieve import CompositeIndex, PrimeTable, is_rough
from .strata import (
    StrataTable,
    compute_strata,
    nfold_all_integers_check,
    nfold_collapse_check,
    rough_pair_cover_evidence,
    verify_absorption,
    verify_partition,
)
from .verdict import RelationVerdict, Status

__version__ = "0.1.0"
