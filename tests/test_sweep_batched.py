"""``dmparam sweep`` evaluates its grid in stacks of grid points; every row
must equal the family's scalar constructor and margin at that point, and
the file must equal, byte for byte, one written per point by ``csv.writer``."""

import csv
import gc
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from dmparam.cli import _SWEEP_CHUNK, _axis_values, main
from dmparam.entanglement import BOUNDARY_BAND, partial_transpose, ppt_check, pt_spectrum
from dmparam.errors import DmParamError
from dmparam.families import FAMILIES, Family, _isotropic_mats
from dmparam.io import fmt_float
from dmparam.linalg import DEFAULT_TOL, Tolerances
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

# bell_diagonal over all three axes, as the benchmark scans it: each axis
# repeats over the others, at its own stride
THREE_AXES = {
    "bell_diagonal_p123": ("bell_diagonal", [(f"p{k}", 0.0, 0.32) for k in (1, 2, 3)], []),
}

# total grid points -> points per axis, for one, two and three axes
SHAPES = {1: ((1,), (1, 1), (1, 1, 1)), 255: ((255,), (15, 17), (3, 5, 17)),
          256: ((256,), (16, 16), (4, 8, 8)), 257: ((257,), (257, 1), (1, 257, 1)),
          600: ((600,), (20, 30), (6, 10, 10))}


# Grids that start on each family's PPT boundary and leave it by less than
# the largest admissible --tol-psd: the first row reads ``boundary``, and
# rows past the band are PPT to the numeric test but not to the margin.
THIRD = 1.0 / 3.0
NEAR_BOUNDARY = {
    "pure_P": ([("alpha", 0.0, 1e-6)], []),
    "isotropic": ([("p", THIRD, THIRD + 1e-6)], []),
    "isotropic_alpha": ([("p", THIRD, THIRD + 1e-6), ("alpha", np.pi / 4, np.pi / 4 + 1e-6)],
                        []),
    "circulant": ([("alpha", 0.3, 0.3 + 1e-6), ("beta", 0.3, 0.3 + 1e-6)], ["p=0.5,0,0.5,0"]),
    "bell_diagonal": ([("p1", 0.5, 0.5000008), ("p3", 0.0, 0.3)], ["p2=0.1"]),
}
LARGE_TOL_PSD = 9e-7


def _argv(out, family, axes, counts, sets):
    argv = ["sweep", "--family", family, "-o", str(out)]
    for (name, lo, hi), count in zip(axes, counts):
        argv += ["--grid", f"{name}={lo!r}:{hi!r}:{count}"]
    for item in sets:
        argv += ["--set", item]
    return argv


def _fixed(f, sets):
    fixed = {}
    for item in sets:
        key, value = item.split("=")
        reals = f.params.get(key) == "reals"
        fixed[key] = [float(v) for v in value.split(",")] if reals else float(value)
    return fixed


def _sweep(tmp_path, family, axes, counts, sets):
    out = tmp_path / f"{family}.csv"
    assert main(_argv(out, family, axes, counts, sets)) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("points", sorted(SHAPES))
@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_rows_equal_scalar_constructor(family, points, tmp_path):
    axes, sets = SWEEPS[family]
    counts = SHAPES[points][len(axes) - 1]
    rows = _sweep(tmp_path, family, axes, counts, sets)
    assert len(rows) == points
    f = FAMILIES[family]
    fixed = _fixed(f, sets)
    for row in rows:
        point = dict(fixed)
        point.update((name, float(row[name])) for name, *_ in axes)
        for key, derive in f.derive.items():
            point[key] = derive(point)
        values = [point[k] for k in f.params]
        assert float(row["min_pt_eig"]) == ppt_check(f.build(*values)).min_pt_eig
        assert float(row["analytic_margin"]) == f.margin(*values)


def _expected_csv(family, axes, counts, sets, tol):
    """The sweep's file built point by point with ``csv.writer``: coordinates
    from ``np.linspace``, the scalar constructor's ``min_pt_eig`` and the
    scalar margin, each as ``f"{x:.17g}"``."""
    f = FAMILIES[family]
    fixed = _fixed(f, sets)
    names = [name for name, *_ in axes]
    flag = {True: "true", False: "false"}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names + ["min_pt_eig", "analytic_margin", "analytic_ppt", "numeric_ppt",
                             "agreement"])
    lines = [np.linspace(lo, hi, count).tolist() for (_, lo, hi), count in zip(axes, counts)]
    for coords in itertools.product(*lines):
        point = dict(fixed, **dict(zip(names, coords)))
        for key, derive in f.derive.items():
            point[key] = derive(point)
        values = [point[k] for k in f.params]
        min_pt = ppt_check(f.build(*values, tol), tol).min_pt_eig
        margin = float(f.margin(*values))
        analytic, numeric = margin >= 0.0, min_pt >= -tol.tol_psd
        agreement = "boundary" if abs(margin) < BOUNDARY_BAND else flag[analytic == numeric]
        writer.writerow([f"{x:.17g}" for x in (*coords, min_pt, margin)]
                        + [flag[analytic], flag[numeric], agreement])
    return buf.getvalue().encode()


def _sweep_and_expected_bytes(tmp_path, family, axes, sets, points, tol_psd):
    counts = SHAPES[points][len(axes) - 1]
    out = tmp_path / f"{family}.csv"
    argv = _argv(out, family, axes, counts, sets)
    if tol_psd is not None:
        argv += ["--tol-psd", repr(tol_psd)]
    assert main(argv) == 0
    tol = DEFAULT_TOL if tol_psd is None else Tolerances(tol_psd=tol_psd)
    return out.read_bytes(), _expected_csv(family, axes, counts, sets, tol)


@pytest.mark.parametrize("points", sorted(SHAPES))
@pytest.mark.parametrize("grid", sorted(SWEEPS) + sorted(THREE_AXES))
def test_csv_bytes_equal_an_independent_writer(grid, points, tmp_path):
    family, axes, sets = THREE_AXES[grid] if grid in THREE_AXES else (grid, *SWEEPS[grid])
    got, expected = _sweep_and_expected_bytes(tmp_path, family, axes, sets, points, None)
    assert got == expected


@pytest.mark.parametrize("points", sorted(SHAPES))
@pytest.mark.parametrize("family", sorted(NEAR_BOUNDARY))
def test_csv_bytes_near_the_boundary(family, points, tmp_path):
    got, expected = _sweep_and_expected_bytes(
        tmp_path, family, *NEAR_BOUNDARY[family], points, LARGE_TOL_PSD)
    assert got == expected
    if points == 600:  # every family's grid holds both kinds of row
        assert b",boundary\r\n" in got and b",false\r\n" in got


def test_percent_format_equals_fmt_float():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64).tolist()
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
               1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
    for x in bits + rng.standard_normal(2000).tolist() + special:
        assert "%.17g" % x == fmt_float(x)


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
            raise DmParamError(f"p = {p!r} out of range")
        return DensityMatrix(2, 2, _isotropic_mats(p), tol)

    family = Family(build, {"p": "real"}, ("p",), lambda p: 0.0 * p,
                    mats=_isotropic_mats, domain=lambda p: p <= 1.6)
    monkeypatch.setitem(FAMILIES, "test_family", family)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "test_family", "--grid", "p=0:2:9", "-o", str(out)]
    assert main(argv) == 3
    assert "state has eigenvalue -6.250e-02" in capsys.readouterr().err
    assert not out.exists()


def test_range_failure_before_gate_failure_wins(tmp_path, capsys, monkeypatch):
    # Row 2 (p = 0.5) fails the range check; rows 5 to 8 (p >= 1.25) are not PSD.
    def build(p, tol):
        if p == 0.5:
            raise DmParamError(f"p = {p!r} out of range")
        return DensityMatrix(2, 2, _isotropic_mats(p), tol)

    family = Family(build, {"p": "real"}, ("p",), lambda p: 0.0 * p,
                    mats=_isotropic_mats, domain=lambda p: p != 0.5)
    monkeypatch.setitem(FAMILIES, "test_family", family)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "test_family", "--grid", "p=0:2:9", "-o", str(out)]
    assert main(argv) == 2
    assert "input error: family 'test_family': p = 0.5 out of range" in capsys.readouterr().err
    assert not out.exists()


def _random_states(rng, shape, d):
    A = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    rho = A @ A.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


@pytest.mark.parametrize("subsystem", ["first", "second"])
def test_partial_transpose_over_a_stack_equals_each_matrix(subsystem):
    stack = _random_states(np.random.default_rng(3), (2, 3), 6)
    pt = partial_transpose(stack, subsystem, dims=(2, 3))
    spectra = pt_spectrum(stack, dims=(2, 3))
    for i in np.ndindex(2, 3):
        assert np.array_equal(pt[i], partial_transpose(stack[i], subsystem, dims=(2, 3)))
        rho = DensityMatrix(2, 3, stack[i])
        assert spectra[i][0] == ppt_check(rho).min_pt_eig


def test_gate_over_a_stack_matches_density_matrix():
    stack = _random_states(np.random.default_rng(4), (7,), 4)
    assert check_states(stack) is None
    for k in range(7):
        w = np.linalg.eigvalsh(stack[k])
        assert np.array_equal(DensityMatrix(2, 2, stack[k]).eigenvalues, w)
    stack[6, 0, 0] = np.nan  # non-finite
    stack[5, 0, 1] += 0.1  # not Hermitian
    stack[4] *= 1.5  # trace 1.5
    stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])  # not PSD
    assert check_states(stack)[0] == (3,)
    for k in (3, 4, 5, 6):
        index, error = check_states(stack[[0, k]])
        assert index == (1,)
        with pytest.raises(DmParamError) as raised:
            DensityMatrix(2, 2, stack[k])
        assert type(raised.value) is type(error) and str(raised.value) == str(error)


def _peak(tmp_path, family, grids):
    """Traced peak of one sweep above the memory in use before it.

    The cyclic collector is off during the sweep, so that a collection does
    not move the peak by freeing garbage made before the sweep.
    """
    argv = ["sweep", "--family", family, "-o", str(tmp_path / "peak.csv")]
    for grid in grids:
        argv += ["--grid", grid]
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
    # one axis, then a long axis repeated over a short one: neither an axis
    # nor the grid may hold memory beyond a chunk
    for family, grids in (("pure_P", ["alpha=0:1.5:{}"]),
                          ("isotropic_alpha", ["p=0:1:{}", "alpha=0:1.5:2"])):
        tracemalloc.start()
        try:
            peaks = [_peak(tmp_path, family, [g.format(points) for g in grids])
                     for points in (20000, 2000, 20000)]  # the first fills caches and free lists
        finally:
            tracemalloc.stop()
        small, large = peaks[1:]
        assert abs(large - small) <= 64 * 1024, (family, small, large)
