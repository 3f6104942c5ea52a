"""Parallel, cached experiment execution.

The shared substrate under the figure/table benchmarks and the ``repro
bench`` CLI: describe sweep points as pure-data specs, fan them across
worker processes, memoize results on disk by content hash.  See
RUNNER.md at the repository root for the operational guide.
"""

from repro.runner.benchcompare import (
    check_invariants,
    compare_reports,
    diff_reports,
    load_report,
    run_compare,
)
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.execute import (
    canonical_json,
    cell_from_record,
    execute_spec,
    point_from_record,
)
from repro.runner.provenance import (
    source_version,
    sweep_hash,
    sweep_provenance,
)
from repro.runner.figures import (
    cells_from_records,
    curves_from_records,
    lifecycle_sweep_specs,
    rebuild_load_curves,
    response_sweep_specs,
    table1_specs,
)
from repro.runner.parallel import ParallelRunner, RunReport, default_workers
from repro.runner.spec import (
    CampaignTrialSpec,
    CorruptionTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    Table1Spec,
    mode_name,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from repro.runner.workers import run_hardened

__all__ = [
    "CampaignTrialSpec",
    "CorruptionTrialSpec",
    "ExperimentSpec",
    "FailSlowTrialSpec",
    "LifecycleSpec",
    "NemesisTrialSpec",
    "OpenLoopSpec",
    "ParallelRunner",
    "ResultCache",
    "RunReport",
    "Table1Spec",
    "canonical_json",
    "cell_from_record",
    "cells_from_records",
    "check_invariants",
    "compare_reports",
    "curves_from_records",
    "default_cache_dir",
    "default_workers",
    "diff_reports",
    "execute_spec",
    "lifecycle_sweep_specs",
    "load_report",
    "mode_name",
    "point_from_record",
    "rebuild_load_curves",
    "response_sweep_specs",
    "run_compare",
    "run_hardened",
    "source_version",
    "spec_from_dict",
    "spec_hash",
    "spec_to_dict",
    "sweep_hash",
    "sweep_provenance",
    "table1_specs",
]
