"""scripts/bench_scaling.py: a bare parent, and one small case through the process runner."""

import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_scaling.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_importing_the_script_loads_neither_numpy_nor_the_package():
    # a child's peak RSS starts at its parent's resident size, so the parent must stay bare
    probe = (
        "import importlib.util, sys; "
        f"spec = importlib.util.spec_from_file_location('bench_scaling', {str(SCRIPT)!r}); "
        "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'pqbernstein'}))"
    )
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_a_case_run_in_fresh_processes_summarizes_every_stage():
    module = load()
    (runs,) = module.run_cases([("pointwise",)], 4)
    assert len(runs) == module.PROCESSES
    assert all(run["import_peak_rss_mb"] > 0 for run in runs)
    (record,) = module.summarize(runs)
    assert record["case"] == "pointwise" and set(record["stages"]) == {"rows_cold", "calls_warm"}
    for stage in record["stages"].values():
        medians = stage["process_medians_s"]
        assert len(medians) == module.PROCESSES and stage["repeats"] == 4
        assert stage["median_s"] == statistics.median(medians)
        assert stage["spread_s"] == max(medians) - min(medians)
        assert 0 < stage["min_s"] <= min(medians) <= stage["median_s"]
