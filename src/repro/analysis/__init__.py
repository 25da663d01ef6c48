"""Validation and evaluation harness.

* :mod:`repro.analysis.trace_diff` — the reorder-and-compare trace
  equivalence check of Section IV-A;
* :mod:`repro.analysis.reporting` — ASCII tables / CSV / text plots;
* :mod:`repro.analysis.experiments` — one driver per table and figure of
  the paper (Fig. 2/3 traces, Fig. 5 depth sweep, Section IV-C case study,
  plus the quantum ablation); every figure after Fig. 2/3 simulates
  campaign specs through :func:`repro.campaign.evaluators.simulate`.

The package re-exports nothing: import each name from its module, so that
importing one of them (the CLI, say) loads none of the others.
"""
