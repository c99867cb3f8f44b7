import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="module")
def compare():
    """scripts/compare_reports.py, loaded as a module."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
