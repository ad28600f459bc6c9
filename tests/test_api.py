"""The ``repro.api`` facade contract."""

import warnings

import pytest

import repro
from repro import api


def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_facade_versioned():
    assert api.VERSION == repro.__version__


def test_serve_surface_on_facade():
    request = api.SubmitRequest(workload="gups", configs=("nocstar",))
    assert request.job_id()
    assert api.SCHEMA_VERSION >= 1
    for name in ("ServeClient", "ServeConfig", "JobManager",
                 "BackgroundDaemon", "run_daemon", "TraceStore",
                 "execute_unit", "unit_cost"):
        assert name in api.__all__


def test_deep_module_imports_stay_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.sim.engine import simulate  # noqa: F401
        from repro.sim.run import compare, run_suite  # noqa: F401
        from repro.sim import configs  # noqa: F401


def test_unknown_sim_attribute_raises():
    import repro.sim

    with pytest.raises(AttributeError):
        repro.sim.hyperdrive
    # The 1.x package-level harness aliases were removed in 2.0.0.
    for name in ("simulate", "compare", "run_suite"):
        with pytest.raises(AttributeError):
            getattr(repro.sim, name)
