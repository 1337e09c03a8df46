"""The benchmark's traced run reaches every target it wraps.

``bench/workloads.py --trace 1`` wraps each name in its ``TRACE_TARGETS``
with ``bench/spans.py``'s ``Tracer`` and exits 1 when a name is missing or
when no call reaches it on a workload.  These tests read both files as they
are and run the same wrapping on small inputs, so a change that skips a
traced call on one sweep axis fails here, not only in the traced run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from kerrcasimir import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    allowed_omega_interval,
    dragging_angular_velocity,
)

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_SPEC = importlib.util.spec_from_file_location("bench_spans", _BENCH / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _trace_targets() -> dict:
    """The TRACE_TARGETS literal of bench/workloads.py, read without importing it."""
    tree = ast.parse((_BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACE_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py assigns no TRACE_TARGETS")


TRACE_TARGETS = _trace_targets()


def silent_targets(module_name: str, run) -> list:
    """The targets of ``module_name`` that no call reaches while ``run()``
    runs with every target wrapped (the traced run's own test)."""
    tracer = spans.Tracer()
    try:
        for name, attrs in TRACE_TARGETS.items():
            module = importlib.import_module(name)
            for attr in attrs:
                tracer.wrap(module, attr)
        run()
    finally:
        tracer.unwrap_all()
    calls = {span.name for span in tracer.spans}
    return [t for t in TRACE_TARGETS[module_name]
            if not any(name.endswith("." + t) for name in calls)]


def base_request(T: float):
    """The benchmark's base configuration: M=1, a=0.5, r=10, ZAMO, L=0.01, S0=1e-4."""
    from kerrcasimir import sweep

    params = KerrParams(M=1.0, a=0.5)
    orbit = EquatorialOrbit(r=10.0, Omega=dragging_angular_velocity(params, 10.0))
    return sweep.PointRequest(params=params, orbit=orbit, cavity=CavityGeometry(L=0.01, S0=1e-4), T=T)


def run_and_write(specs) -> None:
    """Each sweep through the module attributes the traced run wraps, then both writers."""
    from kerrcasimir import sweep

    for spec in specs:
        records = sweep.run_sweep(spec)
        sweep.records_to_csv(records)
        sweep.records_to_jsonl(records)


def test_the_targets_are_the_sweep_and_oracle_layers():
    assert sorted(TRACE_TARGETS) == ["kerrcasimir.oracles", "kerrcasimir.sweep"]
    assert len(TRACE_TARGETS["kerrcasimir.sweep"]) == 7
    assert len(TRACE_TARGETS["kerrcasimir.oracles"]) == 9


def test_a_temperature_sweep_reaches_every_sweep_target():
    from kerrcasimir.sweep import SweepAxis, SweepSpec

    spec = SweepSpec(axis=SweepAxis.T, start=0.1, stop=1e4, count=3, base=base_request(0.0),
                     scale="log")
    assert silent_targets("kerrcasimir.sweep", lambda: run_and_write([spec])) == []


def test_the_other_sweep_axes_reach_every_sweep_target():
    from kerrcasimir.sweep import SweepAxis, SweepSpec

    base = base_request(1.0)
    lo, hi = allowed_omega_interval(base.params, base.orbit.r)
    specs = [
        SweepSpec(axis=SweepAxis.R, start=3.0, stop=300.0, count=3, base=base, scale="log"),
        SweepSpec(axis=SweepAxis.OMEGA, start=lo + 0.05 * (hi - lo), stop=lo + 0.95 * (hi - lo),
                  count=3, base=base),
        SweepSpec(axis=SweepAxis.L, start=1e-4, stop=0.05, count=3, base=base, scale="log"),
        SweepSpec(axis=SweepAxis.A, start=-0.99, stop=0.99, count=3, base=base),
    ]
    assert silent_targets("kerrcasimir.sweep", lambda: run_and_write(specs)) == []


def test_the_oracle_suite_reaches_every_oracle_target():
    from kerrcasimir import oracles

    assert silent_targets("kerrcasimir.oracles", lambda: oracles.validation_checks()) == []
