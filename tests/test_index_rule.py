"""One index rule, ``core.index_array``, at every public entry that takes indices.

Each entry is run on one index set written in every accepted form and must
give what the plain Python-int form gives; each refused entry (a float, an
integral float, a bool, a string, an object) must raise ``TypeError`` rather
than be truncated, alone or inside a list or an array.
"""

import numpy as np
import pytest

from setquery.core import Signal, SparseSpectrum, index_array, query_array, restrict
from setquery.permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    modulation,
    permute_time_many,
    permuted_frequency,
    twiddle,
)

N = 16
V = np.arange(N) * (1 - 2j)
P = PermutationParams(3, 5, 7, N)


def _read(indices, session):
    x = Signal(V)
    reader = x.session() if session else x
    return reader.read_many(indices), reader.samples_used, x.samples_used


# entry -> (a call of one index argument, the forms it takes: "many", "one" or both)
ENTRIES = {
    "index_array": (lambda i: np.asarray(index_array(i)), "many one"),
    "query_array": (lambda i: query_array(i, N), "many"),
    "SparseSpectrum(mapping)": (lambda i: SparseSpectrum(N, {j: 1j for j in i}).items(), "many"),
    "SparseSpectrum(pairs)": (lambda i: SparseSpectrum(N, [(j, 2.0) for j in i]).items(), "many"),
    "SparseSpectrum.from_arrays":
        (lambda i: SparseSpectrum.from_arrays(N, i, np.ones(len(i))).items(), "many"),
    "SparseSpectrum.get": (SparseSpectrum.from_arrays(N, [3, 9], [1j, 2.0]).get, "one"),
    "restrict": (lambda i: restrict(V, i), "many one"),
    "Signal.read_many": (lambda i: _read(i, session=False), "many one"),
    "Signal.session().read_many": (lambda i: _read(i, session=True), "many one"),
    "permuted_frequency": (lambda i: permuted_frequency(P, i), "many one"),
    "bucket_index": (lambda i: bucket_index(P, 4, i), "many one"),
    "bucket_offset": (lambda i: bucket_offset(P, 4, i), "many one"),
    "twiddle": (lambda i: twiddle(N, i), "many one"),
    "modulation": (lambda i: modulation(P, i), "many one"),
    "permute_time_many": (lambda i: permute_time_many(Signal(V), P, i), "many one"),
    "PermutationParams.sigma": (lambda i: permuted_frequency(PermutationParams(i, 5, 7, N), 6), "one"),
    "PermutationParams.a":
        (lambda i: permute_time_many(Signal(V), PermutationParams(3, i, 7, N), 6), "one"),
    "PermutationParams.b": (lambda i: permuted_frequency(PermutationParams(3, 5, i, N), 6), "one"),
}
# entries where an empty index set is an error of its own (ValueError)
NONEMPTY = {"query_array"}

MANY = [3, 11, 5]
ONE = 3
DTYPES = (np.int32, np.int64, np.uint32)
REFUSED = (1.7, 2.0, True, "3", object())


def _forms(kinds, entry):
    """(accepted form, its Python-int form) pairs for an entry's kinds."""
    out = []
    if "many" in kinds:
        out += [(np.array(MANY, dtype=d), MANY) for d in DTYPES]
        out += [(tuple(MANY), MANY), (range(3, 12, 4), [3, 7, 11]), ({3, 11}, list({3, 11}))]
        if entry not in NONEMPTY:
            out += [([], []), (np.array([]), []), (set(), [])]
    if "one" in kinds:
        out += [(d(ONE), ONE) for d in DTYPES]
    return out


def _same(a, b):
    """Equal values of one type and dtype: element-wise for arrays, item-wise for tuples."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return (type(a) is type(b) and getattr(a, "dtype", None) == getattr(b, "dtype", None)
            and np.shape(a) == np.shape(b) and np.array_equal(a, b))


@pytest.mark.parametrize("entry", ENTRIES)
def test_one_index_rule(entry):
    call, kinds = ENTRIES[entry]
    for form, plain in _forms(kinds, entry):
        want = call(plain)
        assert _same(call(form), want), (entry, form)
    for bad in REFUSED:
        refused = ([bad], np.array([bad]), [ONE, bad]) if "many" in kinds else ()
        refused += (bad,) if "one" in kinds else ()
        for form in refused:
            with pytest.raises(TypeError):
                call(form)


def test_index_array_returns_int64():
    a = np.array([4, 2], dtype=np.int64)
    assert index_array(a) is a
    assert index_array(7) == 7 and type(index_array(7)) is int
    for form in ([4, 2], np.array([4, 2], dtype=np.uint32), (i for i in (4, 2)), []):
        out = index_array(form)
        assert isinstance(out, np.ndarray) and out.dtype == np.int64


def test_refused_read_charges_nothing():
    x = Signal(V)
    view = x.session()
    view.read_many([1, 2])
    for form in [f for bad in REFUSED for f in (bad, [bad], [4, bad])]:
        for reader in (view, x):
            with pytest.raises(TypeError):
                reader.read_many(form)
        assert (view.samples_used, x.samples_used) == (2, 2), form
