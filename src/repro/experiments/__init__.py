"""Experiment drivers regenerating every table and figure of the paper.

===========  ==========================================================
Driver       Reproduces
===========  ==========================================================
``table1``   Table 1 — protocol characterization (theory vs. empirical)
``table2``   Table 2 — TCP-friendliness of Robust-AIMD vs. PCC
``figure1``  Figure 1 — the efficiency/fast-utilization/friendliness
             Pareto frontier
``claims``   Claim 1 and Theorems 1-5 demonstrations
``emulab``   Section 5.1 — packet-level hierarchy validation (the
             Emulab-testbed substitute)
===========  ==========================================================

Each driver exposes ``run_*`` returning a structured result plus a
``render_*`` producing the paper-style text table; the CLI and the
benchmark suite call the same entry points.
"""

from repro.experiments.report import Table, render_table
from repro.experiments.results import load_result, save_result
from repro.experiments.table1 import Table1Result, render_table1, run_table1
from repro.experiments.table2 import Table2Result, render_table2, run_table2
from repro.experiments.figure1 import Figure1Result, render_figure1, run_figure1
from repro.experiments.claims import ClaimsResult, render_claims, run_claims
from repro.experiments.emulab import EmulabResult, render_emulab, run_emulab
from repro.experiments.fct import FctResult, render_fct, run_fct_study
from repro.experiments.survey import SurveyResult, render_survey, run_survey

__all__ = [
    "ClaimsResult",
    "EmulabResult",
    "FctResult",
    "SurveyResult",
    "Figure1Result",
    "Table",
    "Table1Result",
    "Table2Result",
    "load_result",
    "render_claims",
    "render_emulab",
    "render_fct",
    "render_figure1",
    "render_survey",
    "render_table",
    "render_table1",
    "render_table2",
    "run_claims",
    "run_emulab",
    "run_fct_study",
    "run_figure1",
    "run_survey",
    "run_table1",
    "run_table2",
    "save_result",
]
