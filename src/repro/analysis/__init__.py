"""Closed-form models from the paper's Sections 2-4.

* :mod:`repro.analysis.cost_model` — Equations 1-2 (cost, Wamp).
* :mod:`repro.analysis.fixpoint` — Equations 3-4 and Table 1.
* :mod:`repro.analysis.hotcold` — Section 3, Table 2, Figure 3's "opt".
* :mod:`repro.analysis.lemma` — the Maximality Lemma.
"""

from repro.analysis.cost_model import (
    cleaning_reads,
    cleaning_writes,
    cost_per_segment,
    emptiness_from_wamp,
    emptiness_ratio,
    write_amplification,
)
from repro.analysis.fixpoint import (
    TABLE1_FILL_FACTORS,
    Table1Row,
    emptiness_fixpoint,
    table1,
    table1_row,
)
from repro.analysis.hotcold import (
    TABLE2_SKEWS,
    Table2Row,
    analytic_split_ratio,
    hotcold_parameters,
    opt_wamp,
    optimal_slack_split,
    population_emptiness,
    split_fill_factor,
    table2,
    table2_row,
    total_cost,
    total_wamp,
)
from repro.analysis.multiclass import (
    bucketize_frequencies,
    distribution_opt_wamp,
    optimal_slack_shares,
    separated_wamp,
)
from repro.analysis.lemma import (
    max_paired_sum,
    mdc_order,
    mdc_processing_cost,
    min_paired_sum,
    paired_sum,
)

__all__ = [
    "TABLE1_FILL_FACTORS",
    "TABLE2_SKEWS",
    "Table1Row",
    "Table2Row",
    "analytic_split_ratio",
    "bucketize_frequencies",
    "cleaning_reads",
    "distribution_opt_wamp",
    "optimal_slack_shares",
    "separated_wamp",
    "cleaning_writes",
    "cost_per_segment",
    "emptiness_fixpoint",
    "emptiness_from_wamp",
    "emptiness_ratio",
    "hotcold_parameters",
    "max_paired_sum",
    "mdc_order",
    "mdc_processing_cost",
    "min_paired_sum",
    "opt_wamp",
    "optimal_slack_split",
    "paired_sum",
    "population_emptiness",
    "split_fill_factor",
    "table1",
    "table1_row",
    "table2",
    "table2_row",
    "total_cost",
    "total_wamp",
    "write_amplification",
]
