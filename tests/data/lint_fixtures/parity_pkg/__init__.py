"""RL013 fixture: a *clean* dual-core pair, runnable for cross-validation.

``object_core.py`` and ``columnar_core.py`` implement the same miniature
single-machine FIFO event loop twice — once scalar over per-job dicts,
once columnar over parallel lists with an arrival cohort path that a
recorder-armed run skips.  They declare each other as parity peers
and map their physical fields onto shared logical tokens, so RL013 must
certify the pair with **zero** findings.

The same two modules are the *runtime* half of the cross-validation:
``tests/test_lint_invariants.py`` runs both mini-cores on shared job
lists and asserts identical schedules (and that armed and disarmed columnar
runs agree), mirroring what ``REPRO_PARITY=1`` does to the real
engine cores.  The drifted twin lives in ``parity_drift_pkg`` — same
shape, deliberate drift, flagged statically *and* divergent at runtime.
"""
