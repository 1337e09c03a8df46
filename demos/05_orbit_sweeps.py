"""Deterministic parameter sweeps and CSV emission.

A sweep evaluates one axis of a base configuration on a grid; every grid
point becomes one output record, failed points included (with a status
instead of numbers).  Points are evaluated in grid order, so the output
bytes depend only on the sweep.  The same functionality is exposed on the
command line, e.g.

    kerrcasimir sweep --mass 1 --spin 0.5 --radius 10 --omega zamo \
        --length 0.01 --area 1e-4 --axis T --start 0.01 --stop 10 \
        --count 25 --scale log --output sweep.csv
"""

from kerrcasimir import (
    CavityGeometry,
    KerrParams,
    PointRequest,
    SweepAxis,
    SweepSpec,
    orbit_from_band_fraction,
    records_to_csv,
    run_sweep,
)

params = KerrParams(M=1.0, a=0.5)
base = PointRequest(
    params=params,
    orbit=orbit_from_band_fraction(params, 10.0, 0.0),
    cavity=CavityGeometry(L=0.01, S0=1e-4),
    T=1.0,
)

spec = SweepSpec(axis=SweepAxis.T, start=0.01, stop=10.0, count=9, scale="log", base=base)
records = run_sweep(spec)

print("Coordinate-temperature sweep on the zero-angular-momentum orbit:")
print(f"{'T':>10} {'Tp':>10} {'beta_hat':>10} {'F_ren':>14} {'S_ren':>12} {'status':>8}")
for rec in records:
    print(f"{rec.T:10.4f} {rec.Tp:10.4f} {rec.beta_hat:10.4f} {rec.F_ren:+14.6e} "
          f"{rec.S_ren:12.5e} {rec.status.value:>8}")

again = records_to_csv(run_sweep(spec))
print()
print(f"CSV bytes of two runs of the same sweep identical: {records_to_csv(records) == again}")

# A sweep across the whole angular-velocity band hits both light-cone
# boundaries; those points come back as forbidden_orbit records.
lo = base.orbit.Omega - 1.2 * (base.orbit.Omega - orbit_from_band_fraction(params, 10.0, -0.999).Omega)
hi = base.orbit.Omega + 1.2 * (orbit_from_band_fraction(params, 10.0, 0.999).Omega - base.orbit.Omega)
band = SweepSpec(axis=SweepAxis.OMEGA, start=lo, stop=hi, count=11, base=base)
statuses = [rec.status.value for rec in run_sweep(band)]
print(f"Angular-velocity sweep statuses: {statuses}")
