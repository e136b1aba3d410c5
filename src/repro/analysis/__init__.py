"""Determinism & layering lint: the repo's bit-identity invariants, enforced.

The whole architecture rests on *bit-identity* between the vectorized
kernels and their stateful references under fixed seeds, and on a
handful of rules that guarantee it: no SIMD transcendentals in kernel
paths, no wall-clock or ambient randomness in deterministic code,
spans read clocks never RNGs, silent degradations must be counted and
warned. Until this package,
those rules lived only in docstrings and reviewer memory -- and the
PR 4/PR 6 ``np.exp`` trap plus two live ``os.urandom`` call sites show
how reliably prose-only invariants decay.

``repro.analysis`` turns them into CI-enforced checks, the same way
``repro.obs.validate`` and ``repro.service.validate`` mechanized the
trace and journal grammars: a zero-dependency AST lint with a rule
registry (one module per rule family), stable finding codes, inline
suppressions that *must* carry a reason, and a JSON baseline
(``.ff-lint-baseline.json``) for grandfathered findings so the tool is
strict from day one.

Run it::

    python -m repro.analysis [--strict] [paths...]
    python -m repro.analysis --graph dot       # module import DAG
    python -m repro.analysis --update-baseline

Rules (each rule's docstring states its invariant and provenance):

========  ======================  ============================================
code      name                    invariant
========  ======================  ============================================
FF000     suppression-hygiene     every suppression carries a known code
                                  and a non-empty reason
FF001     numpy-transcendental    no SIMD ``np.exp``/``np.log``/... in
                                  bit-identity-critical modules
FF002     wall-clock              clock reads only in the observability
                                  layer, the service clock, and scripts
FF003     ambient-randomness      all randomness flows through seeded RNG
                                  objects, never ambient entropy
FF004     unordered-iteration     no set/dict-from-set iteration order in
                                  RNG- or relay-state-touching functions
FF005     layering                ``tornet``/``core``/``kernel`` never import
                                  ``api``/``service``/obs-exporters at
                                  module scope
FF006     silent-degradation      a swallowed exception increments a metrics
                                  counter or emits a warning
========  ======================  ============================================

Suppress a finding inline (the reason is mandatory; a reason-less
``allow`` does not suppress and is itself an FF000 finding)::

    value = np.exp(x)  # ff-lint: allow[FF001] reason=not a kernel path
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BaselineEntry,
    load_baseline,
    match_baseline,
    save_baseline,
)
from repro.analysis.core import (
    Finding,
    LintContext,
    all_rules,
    register_rule,
    run_paths,
)

# Importing the rule modules registers every rule family.
from repro.analysis import rules_numeric  # noqa: E402,F401  (registry)
from repro.analysis import rules_time  # noqa: E402,F401
from repro.analysis import rules_random  # noqa: E402,F401
from repro.analysis import rules_ordering  # noqa: E402,F401
from repro.analysis import rules_layering  # noqa: E402,F401
from repro.analysis import rules_degradation  # noqa: E402,F401

__all__ = [
    "BaselineEntry",
    "Finding",
    "LintContext",
    "all_rules",
    "load_baseline",
    "match_baseline",
    "register_rule",
    "run_paths",
    "save_baseline",
]
