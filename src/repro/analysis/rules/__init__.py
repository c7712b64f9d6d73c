"""Built-in GRAMER rule families.

Importing this package registers every rule with the engine registry in
:mod:`repro.analysis.core`.  Families and their ID blocks:

* ``determinism`` (GRM1xx) — wall-clock reads and unseeded RNGs;
* ``purity`` (GRM2xx) — environment reads, mutable module globals, and
  filesystem access inside memoized code;
* ``immutability`` (GRM3xx) — non-frozen spec/config dataclasses and
  post-construction mutation of spec objects;
* ``units`` (GRM4xx) — arithmetic mixing unit-suffixed quantities and
  float equality on measured quantities;
* ``crossproc`` (GRM5xx) — large objects or closures shipped through
  process-pool submissions by value;
* ``observability`` (GRM6xx) — bare ``print()`` bypassing the obs layer;
* ``engine_selection`` (GRM7xx) — exact equality asserted on
  tolerance-banded turbo timing fields;
* ``resilience`` (GRM8xx) — broad exception handlers that swallow errors
  without re-raise or logging;
* ``graph_store`` (GRM9xx) — graphs loaded or generated outside the
  content-addressed :class:`repro.graph.store.GraphStore` path;
* ``meta`` (GRM0xx) — hygiene of the checker's own annotations (unused
  suppressions);
* ``project`` (GRM10xx) — cross-file flows over the whole-program pass:
  interprocedural determinism taint, cache-key completeness along backend
  call graphs, and pool-submission reachability.
"""

from . import (  # noqa: F401  (import-for-registration)
    crossproc,
    determinism,
    engine_selection,
    graph_store,
    immutability,
    meta,
    observability,
    project,
    purity,
    resilience,
    units,
)
