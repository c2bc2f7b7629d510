"""Sublinear-sample estimation of Fourier coefficients on a query set.

Given oracle access to a length-n complex signal and a set S of k frequency
indices, :func:`set_query` estimates the unitary spectrum on S from
O(k/eps * log(n/delta)) samples, with squared l2 error on S bounded by the
spectral mass outside S (scaled by eps) plus a delta-controlled leakage term,
with probability at least 9/10.  The supporting pieces -- an access-counted
signal oracle, a pseudorandom spectrum permutation, flat-window filters, and
the bucketed estimation loop -- live in the submodules (``setquery.core``,
``setquery.permutation``, ``setquery.filters``, ``setquery.bins``,
``setquery.query``), along with Monte Carlo verification of every
probabilistic claim the construction relies on (``setquery.verification``)
and the experiment harness (``setquery.harness``).
"""

from .core import Signal, SparseSpectrum, inverse_fft
from .query import set_query

__version__ = "0.1.0"

__all__ = ["Signal", "SparseSpectrum", "inverse_fft", "set_query"]
