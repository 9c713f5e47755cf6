"""Shared pytest set-up: a deterministic profile for the property tests."""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # only test_properties.py needs it; the other files still run
    pass
else:
    # Derandomized, so every run draws the same examples and tier-1 stays
    # deterministic; no example database is written, and no deadline or
    # too-slow check ties a pass to the machine's speed.
    settings.register_profile(
        "deterministic",
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("deterministic")
