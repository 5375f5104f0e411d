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

#: The driver module that holds each name of ``__all__``. Names resolve on
#: first use (:func:`__getattr__`), so importing one driver loads no other.
#: A lookup is never cached in this module's globals: it returns whatever
#: the driver module holds then, a function rebound there (as the
#: benchmark tracer in ``perfbench/`` does) included.
_HOMES = {
    "repro.experiments.report": ("Table", "render_table"),
    "repro.experiments.results": ("load_result", "save_result"),
    "repro.experiments.table1": ("Table1Result", "render_table1", "run_table1"),
    "repro.experiments.table2": ("Table2Result", "render_table2", "run_table2"),
    "repro.experiments.figure1": ("Figure1Result", "render_figure1", "run_figure1"),
    "repro.experiments.claims": ("ClaimsResult", "render_claims", "run_claims"),
    "repro.experiments.emulab": ("EmulabResult", "render_emulab", "run_emulab"),
    "repro.experiments.fct": ("FctResult", "render_fct", "run_fct_study"),
    "repro.experiments.survey": ("SurveyResult", "render_survey", "run_survey"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(_HOME_OF[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
