"""``dmparam sweep`` evaluates its grid in stacks of grid points; every row
must equal the family's scalar constructor and margin at that point."""

import csv
import gc
import tracemalloc

import numpy as np
import pytest

from dmparam.cli import _SWEEP_CHUNK, _axis_values, main
from dmparam.entanglement import partial_transpose, ppt_check, pt_spectrum
from dmparam.errors import DmParamError, OutOfRangeError
from dmparam.families import FAMILIES, Family, _isotropic_mats
from dmparam.states import DensityMatrix, check_states

HALF_PI = np.pi / 2

# family -> (grid axes as (name, lo, hi), --set items)
SWEEPS = {
    "pure_P": ([("alpha", -0.2, 1.7)], []),
    "isotropic": ([("p", -1.0 / 3.0, 1.0)], []),
    "isotropic_alpha": ([("p", -0.3, 1.0), ("alpha", 0.0, HALF_PI)], []),
    "circulant": ([("alpha", 0.0, HALF_PI), ("beta", 0.0, HALF_PI)], ["p=0.1,0.15,0.3,0.45"]),
    "bell_diagonal": ([("p1", 0.0, 0.6), ("p3", 0.0, 0.3)], ["p2=0.1"]),
}

# total grid points -> points per axis, for one and two axes
SHAPES = {1: (1, (1, 1)), 255: (255, (15, 17)), 256: (256, (16, 16)),
          257: (257, (257, 1)), 600: (600, (20, 30))}


def _sweep(tmp_path, family, axes, counts, sets):
    out = tmp_path / f"{family}.csv"
    argv = ["sweep", "--family", family, "-o", str(out)]
    for (name, lo, hi), count in zip(axes, counts):
        argv += ["--grid", f"{name}={lo!r}:{hi!r}:{count}"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("points", sorted(SHAPES))
@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_rows_equal_scalar_constructor(family, points, tmp_path):
    axes, sets = SWEEPS[family]
    one, two = SHAPES[points]
    counts = (one,) if len(axes) == 1 else two
    rows = _sweep(tmp_path, family, axes, counts, sets)
    assert len(rows) == points
    f = FAMILIES[family]
    fixed = {}
    for item in sets:
        key, value = item.split("=")
        reals = f.params.get(key) == "reals"
        fixed[key] = [float(v) for v in value.split(",")] if reals else float(value)
    for row in rows:
        point = dict(fixed)
        point.update((name, float(row[name])) for name, *_ in axes)
        for key, derive in f.derive.items():
            point[key] = derive(point)
        values = [point[k] for k in f.params]
        assert float(row["min_pt_eig"]) == ppt_check(f.build(*values)).min_pt_eig
        assert float(row["analytic_margin"]) == f.margin(*values)


@pytest.mark.parametrize("lo, hi, count", [
    (0.0, 1.0, 1), (0.3, 0.3, 1), (0.0, 1.0, 2), (-1.0, 1.0, 7), (1.0, -1.0, 600),
    (0.0, 5e-324, 3), (0.0, HALF_PI, 160), (-1.0 / 3.0, 0.9, 1000), (2.5, 2.5, 5),
])
def test_axis_values_equal_linspace(lo, hi, count):
    expected = np.linspace(lo, hi, count)
    idx = np.arange(count)
    assert np.array_equal(_axis_values(lo, hi, count, idx), expected)
    assert [float(_axis_values(lo, hi, count, i)) for i in range(count)] == expected.tolist()


def test_failure_past_first_chunk_reports_that_point(tmp_path, capsys):
    # p = 1.00166... is the first point beyond [-1/3, 1]: row 300, second chunk
    assert _SWEEP_CHUNK < 300
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "isotropic", "--grid", "p=0:2:600", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "isotropic: p = 1.001669449081803 outside [-1/3, 1]" in err
    assert not out.exists()


def test_gate_failure_before_range_failure_wins(tmp_path, capsys, monkeypatch):
    # Rows 5 and 6 (p = 1.25, 1.5) are not PSD; rows 7 and 8 fail the range check.
    def build(p, tol):
        if p > 1.6:
            raise OutOfRangeError(f"p = {p!r} out of range")
        return DensityMatrix(2, 2, _isotropic_mats(p), tol)

    family = Family(build, {"p": "real"}, ("p",), lambda p: 0.0 * p,
                    mats=_isotropic_mats, domain=lambda p: p <= 1.6)
    monkeypatch.setitem(FAMILIES, "test_family", family)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "test_family", "--grid", "p=0:2:9", "-o", str(out)]
    assert main(argv) == 3
    assert "state has eigenvalue -6.250e-02" in capsys.readouterr().err
    assert not out.exists()


def _random_states(rng, shape, d):
    A = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    rho = A @ A.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


@pytest.mark.parametrize("subsystem", ["first", "second"])
def test_partial_transpose_over_a_stack_equals_each_matrix(subsystem):
    stack = _random_states(np.random.default_rng(3), (2, 3), 6)
    pt = partial_transpose(stack, subsystem, dims=(2, 3))
    spectra = pt_spectrum(stack, subsystem, dims=(2, 3))
    for i in np.ndindex(2, 3):
        assert np.array_equal(pt[i], partial_transpose(stack[i], subsystem, dims=(2, 3)))
        rho = DensityMatrix(2, 3, stack[i])
        assert spectra[i][0] == ppt_check(rho, subsystem=subsystem).min_pt_eig


def test_gate_over_a_stack_matches_density_matrix():
    stack = _random_states(np.random.default_rng(4), (7,), 4)
    w, failure = check_states(stack)
    assert failure is None
    for k in range(7):
        assert np.array_equal(w[k], DensityMatrix(2, 2, stack[k]).eigenvalues)
    stack[6, 0, 0] = np.nan  # non-finite
    stack[5, 0, 1] += 0.1  # not Hermitian
    stack[4] *= 1.5  # trace 1.5
    stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])  # not PSD
    assert check_states(stack)[1][0] == (3,)
    for k in (3, 4, 5, 6):
        _, (index, error) = check_states(stack[[0, k]])
        assert index == (1,)
        with pytest.raises(DmParamError) as raised:
            DensityMatrix(2, 2, stack[k])
        assert type(raised.value) is type(error) and str(raised.value) == str(error)


def _peak(tmp_path, points):
    """Traced peak of one ``pure_P`` sweep above the memory in use before it.

    The cyclic collector is off during the sweep, so that a collection does
    not move the peak by freeing garbage made before the sweep.
    """
    out = str(tmp_path / f"p{points}.csv")
    argv = ["sweep", "--family", "pure_P", "--grid", f"alpha=0:1.5:{points}", "-o", out]
    gc.collect()
    gc.disable()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        gc.enable()


def test_memory_follows_chunk_not_grid(tmp_path, capsys):
    tracemalloc.start()
    try:
        _peak(tmp_path, 20000)  # fill caches and free lists first
        small = _peak(tmp_path, 2000)
        large = _peak(tmp_path, 20000)
    finally:
        tracemalloc.stop()
    assert abs(large - small) <= 64 * 1024, (small, large)
