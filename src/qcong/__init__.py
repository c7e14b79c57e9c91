"""Exact q-series arithmetic and congruence checks for symmetric sums."""

from .bivariate import BiPoly, RatExpr
from .congruence import (
    NoncoprimeDenominatorError,
    NotInvertibleError,
    Residue,
    congruent,
    reduce,
    residual,
)
from .cyclotomic import cyclotomic, cyclotomic_power, totient
from .families import DEFAULT_COEFF_BOUND, FamilySpec, SplitMix64, generate
from .laurent import LaurentPoly, divides, divrem, divrem_laurent, exact_div, ext_gcd, one, q, qpow, zero
from .qcalc import gauss_binomial, qbinom_base, qbinom_int, qpoch
from .sweep import SweepConfig, SweepSummary, load_config, run_sweep
from .theorems import (
    AlphaParams,
    CheckReport,
    SymParams,
    check_classical_sun,
    check_even_sign_fact,
    check_guo_zeng,
    check_lemma_sn_binom,
    check_lemma_sn_minus1,
    check_s0_identity,
    check_sun_p_analogue,
    check_thm_1_1,
    check_thm_1_2,
    check_thm_2_1,
)
from .transforms import PolySeq, common_denominator, hat, tilde

__version__ = "0.1.0"

__all__ = [
    "AlphaParams",
    "BiPoly",
    "CheckReport",
    "DEFAULT_COEFF_BOUND",
    "FamilySpec",
    "LaurentPoly",
    "NoncoprimeDenominatorError",
    "NotInvertibleError",
    "PolySeq",
    "RatExpr",
    "Residue",
    "SplitMix64",
    "SweepConfig",
    "SweepSummary",
    "SymParams",
    "check_classical_sun",
    "check_even_sign_fact",
    "check_guo_zeng",
    "check_lemma_sn_binom",
    "check_lemma_sn_minus1",
    "check_s0_identity",
    "check_sun_p_analogue",
    "check_thm_1_1",
    "check_thm_1_2",
    "check_thm_2_1",
    "common_denominator",
    "congruent",
    "cyclotomic",
    "cyclotomic_power",
    "divides",
    "divrem",
    "divrem_laurent",
    "exact_div",
    "ext_gcd",
    "gauss_binomial",
    "generate",
    "hat",
    "load_config",
    "one",
    "q",
    "qbinom_base",
    "qbinom_int",
    "qpoch",
    "qpow",
    "reduce",
    "residual",
    "run_sweep",
    "tilde",
    "totient",
    "zero",
]
