"""Self-contained statistical toolkit for the corpus and reliability analyses."""

from .descriptive import FiveNumber, five_number, gini, linear_quantiles, midranks, spearman
from .glm import (
    effect_table,
    fit_binomial_logistic,
    fit_negative_binomial,
    logistic_log_likelihood,
    logistic_score,
    negbin_log_likelihood,
)
from .ranktests import bh_adjust, check_alpha, cliffs_delta, mann_whitney_u
from .trend import mann_kendall
from .types import EffectRow, EffectSize, EffectTable, GlmFit, TestResult, TrendResult

__all__ = [
    "EffectRow",
    "EffectSize",
    "EffectTable",
    "FiveNumber",
    "GlmFit",
    "TestResult",
    "TrendResult",
    "bh_adjust",
    "check_alpha",
    "cliffs_delta",
    "effect_table",
    "fit_binomial_logistic",
    "fit_negative_binomial",
    "five_number",
    "gini",
    "linear_quantiles",
    "logistic_log_likelihood",
    "logistic_score",
    "mann_kendall",
    "mann_whitney_u",
    "midranks",
    "negbin_log_likelihood",
    "spearman",
]
