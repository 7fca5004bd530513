"""The real transform pair of `_backend` against numpy.fft, bit for bit."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dpstab import _backend

SIZES = list(range(2, 300)) + [2310, 2400, 4000, 4001, 4096, 6000, 7919, 8000, 12000]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_transforms_match_numpy_fft():
    rng = np.random.default_rng(7)
    for n in SIZES:
        x = rng.standard_normal(n)
        X = np.fft.rfft(x)
        assert _same(_backend.rfft(x), X), n
        # the imaginary parts at DC and (n even) Nyquist, which irfft discards
        X.imag[[0, -1]] = rng.standard_normal(2)
        assert _same(_backend.irfft(X, n), np.fft.irfft(X, n)), n


@pytest.mark.parametrize("n", [7, 2400, 4001])
def test_transforms_of_stacked_strided_and_integer_input(n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n))
    strided = rng.standard_normal((n, 4))[:, 1]
    ints = rng.integers(-1000, 1000, size=n)
    for x in (rows, np.asfortranarray(rows), strided, ints):
        assert _same(_backend.rfft(x), np.fft.rfft(x))
    spec = np.fft.rfft(rows)
    for X in (spec, spec[:, ::-1][:, ::-1], spec.real.astype(np.int64)):
        assert _same(_backend.irfft(X, n), np.fft.irfft(X, n))


def test_transforms_fill_out_buffers():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2400))
    spec = np.empty((2, 1201), dtype=complex)
    assert _backend.rfft(x, out=spec) is spec
    assert _same(spec, np.fft.rfft(x))
    grid = np.empty((2, 2400))
    assert _backend.irfft(spec, 2400, out=grid) is grid
    assert _same(grid, np.fft.irfft(spec, 2400))


def test_no_module_imports_numpy_fft():
    # every transform of the package comes from `_backend`
    found = []
    for path in sorted((Path(_backend.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[:2] in (["numpy", "fft"], ["np", "fft"])]
    assert found == []
