from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def cold_caches() -> None:
    """Forget every operator entry and everything kept across reports."""
    from pqbernstein import error_bounds, operator_eval, reportio

    operator_eval._tables.cache_clear()
    operator_eval._grid_basis.clear()
    error_bounds._kept_grid.clear()
    reportio._float_texts.clear()
