"""Time-reversible substitution models (the GTR family).

The General Time Reversible model [Tavaré 1986] is parameterized by six
exchangeability rates (AC, AG, AT, CG, CT, GT) and the stationary base
frequencies π.  The rate matrix is ``Q[i, j] = r[i, j] * π[j]`` for
``i != j``, normalized so the expected number of substitutions per unit
branch length is one.

Because GTR is reversible, ``B = diag(√π) · Q · diag(1/√π)`` is symmetric
and can be diagonalized with the numerically robust :func:`numpy.linalg.eigh`.
The resulting :class:`EigenSystem` provides two things the likelihood core
needs:

* batched transition matrices ``P(t) = exp(Q t)``;
* the eigenbasis *z-transform* used for analytic branch-length derivatives:
  with ``z(L) = L · Wrᵀ`` (``Wr = Vᵀ diag(√π)``), the per-site likelihood
  at a branch of length ``t`` becomes ``f(t) = Σ_k z_i[k] z_j[k] e^{λ_k t}``,
  whose derivatives in ``t`` are trivial.  This mirrors RAxML's "sumtable"
  trick for the Newton–Raphson branch optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError

__all__ = [
    "EigenSystem",
    "SubstitutionModel",
    "fill_eigen_caches",
    "GTR",
    "JC69",
    "K80",
    "F81",
    "HKY85",
    "RATE_ORDER",
]

#: Order of the six GTR exchangeability parameters.
RATE_ORDER = ("AC", "AG", "AT", "CG", "CT", "GT")

_MIN_FREQ = 1e-8
_MIN_RATE = 1e-7


@dataclass(frozen=True)
class EigenSystem:
    """Eigen-decomposition of a reversible rate matrix.

    Attributes
    ----------
    eigenvalues:
        λ, shape ``(n_states,)``, all ≤ 0 with exactly one zero.
    left:
        ``diag(1/√π) · V``, shape ``(n, n)``.
    right:
        ``Vᵀ · diag(√π)``, shape ``(n, n)``; ``P(t) = left·diag(e^{λt})·right``.
    frequencies:
        Stationary distribution π.
    """

    eigenvalues: np.ndarray
    left: np.ndarray
    right: np.ndarray
    frequencies: np.ndarray

    @property
    def n_states(self) -> int:
        return int(self.eigenvalues.shape[0])

    def pmatrices(self, t: np.ndarray | float) -> np.ndarray:
        """Transition matrices ``P(t)`` for a batch of branch lengths.

        ``t`` may have any shape ``S``; the result has shape ``S + (n, n)``.
        """
        t = np.asarray(t, dtype=np.float64)
        expo = np.exp(t[..., None] * self.eigenvalues)  # S + (n,)
        # P = left @ diag(expo) @ right, batched over S
        return np.einsum("ik,...k,kj->...ij", self.left, expo, self.right)

    def ztransform(self, clv: np.ndarray) -> np.ndarray:
        """Map CLVs into the eigenbasis: ``z = clv · rightᵀ``.

        Works on any array whose last axis is the state axis.
        """
        return clv @ self.right.T


def _checked_rates(rates, n: int) -> np.ndarray:
    """A fresh float64 copy of the ``n(n-1)/2`` exchangeabilities of an
    ``n``-state model, or :class:`ModelError`."""
    rates = np.array(rates, dtype=np.float64)
    expected = n * (n - 1) // 2
    if rates.shape != (expected,):
        raise ModelError(
            f"expected {expected} exchangeabilities for {n} states, "
            f"got shape {rates.shape}"
        )
    if (rates < _MIN_RATE).any():
        raise ModelError(f"exchangeabilities must be >= {_MIN_RATE}")
    return rates


def _rate_matrices(rates: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """Normalized rate matrices ``(k, n, n)`` of ``k`` models given as rows
    of ``rates`` ``(k, n(n-1)/2)`` and ``frequencies`` ``(k, n)``."""
    k, n = frequencies.shape
    r = np.zeros((k, n, n))
    upper = np.triu_indices(n, k=1)
    r[:, upper[0], upper[1]] = rates
    r = r + r.transpose(0, 2, 1)
    q = r * frequencies[:, None, :]
    diag = np.arange(n)
    q[:, diag, diag] = 0.0
    # Row sums and the normalizing dot product are taken as running sums:
    # those add in one fixed order whatever ``k`` and the memory layout are
    # (a reduction or a BLAS dot may not), and a model must decompose to
    # the same bits alone or stacked.
    q[:, diag, diag] = -q.cumsum(axis=2)[:, :, -1]
    # normalize: expected substitutions per unit time = -Σ π_i q_ii = 1
    mu = -(frequencies * q[:, diag, diag]).cumsum(axis=1)[:, -1]
    if np.any(mu <= 0):  # pragma: no cover - defensive
        raise ModelError("degenerate rate matrix")
    return q / mu[:, None, None]


def fill_eigen_caches(models) -> None:
    """Decompose every model of ``models`` (all of one state count) that
    has no cached :class:`EigenSystem`, with one stacked ``eigh``.

    Every step is elementwise, a per-row reduction or a per-matrix LAPACK
    call, so a model's eigensystem is bit for bit the same whether it is
    decomposed alone (:meth:`SubstitutionModel.eigen`) or with others —
    what lets a likelihood decompose the models of a whole partition stack
    at once after a parameter update.
    """
    todo = [m for m in models if m._eigen is None]
    if not todo:
        return
    pi = np.stack([m.frequencies for m in todo])
    q = _rate_matrices(np.stack([m.rates for m in todo]), pi)
    sqrt_pi = np.sqrt(pi)
    b = (sqrt_pi[:, :, None] * q) / sqrt_pi[:, None, :]
    b = 0.5 * (b + b.transpose(0, 2, 1))  # symmetrize against round-off
    lam, v = np.linalg.eigh(b)
    # Clamp the (analytically zero) top eigenvalue exactly to 0 so that
    # P(t) rows sum to one even for huge t.
    lam = np.minimum(lam, 0.0)
    lam[np.arange(len(todo)), np.argmax(lam, axis=1)] = 0.0
    left = v / sqrt_pi[:, :, None]
    right = v.transpose(0, 2, 1) * sqrt_pi[:, None, :]
    for i, model in enumerate(todo):
        model._eigen = EigenSystem(
            eigenvalues=lam[i], left=left[i], right=right[i], frequencies=pi[i]
        )


class SubstitutionModel:
    """A GTR-family substitution model over an ``n_states`` alphabet.

    Parameters
    ----------
    rates:
        Upper-triangle exchangeabilities, length ``n(n-1)/2``, in row-major
        order (for DNA: AC, AG, AT, CG, CT, GT).  The last rate (GT) is the
        conventional reference and is typically fixed to 1.
    frequencies:
        Stationary frequencies, length ``n_states``, positive, summing to 1.
    """

    def __init__(self, rates: np.ndarray, frequencies: np.ndarray) -> None:
        frequencies = np.asarray(frequencies, dtype=np.float64)
        n = frequencies.shape[0]
        if n < 2:
            raise ModelError("need at least two states")
        rates = _checked_rates(rates, n)
        if np.any(frequencies < _MIN_FREQ):
            raise ModelError(f"frequencies must be >= {_MIN_FREQ}")
        total = frequencies.sum()
        # np.isclose(total, 1.0, atol=1e-6) without its array machinery: a
        # model is built per partition per GTR optimization step
        if not abs(total - 1.0) <= 1e-6 + 1e-5:
            raise ModelError(f"frequencies sum to {total}, not 1")
        self.rates = rates
        self.frequencies = frequencies / total
        self._eigen: EigenSystem | None = None

    @property
    def n_states(self) -> int:
        return int(self.frequencies.shape[0])

    # ------------------------------------------------------------------ #
    def rate_matrix(self) -> np.ndarray:
        """The normalized rate matrix Q (rows sum to 0, mean rate 1)."""
        return _rate_matrices(self.rates[None, :], self.frequencies[None, :])[0]

    def eigen(self) -> EigenSystem:
        """Cached eigen-decomposition of the normalized rate matrix."""
        if self._eigen is None:
            fill_eigen_caches([self])
        return self._eigen

    # ------------------------------------------------------------------ #
    def with_rates(self, rates: np.ndarray) -> "SubstitutionModel":
        """New model with replaced exchangeabilities; the frequencies are
        kept bit for bit.

        Normalizing an already normalized vector again can move it by an
        ulp, and equal parameters must give equal likelihoods: the
        optimizers compare a partition's likelihood before and after a
        line search with ``<``, and a search that ends where it started
        must read as "not worse".  The frequencies were checked when this
        model was built, so only the rates are (a GTR step builds one
        model per partition).
        """
        model = object.__new__(SubstitutionModel)
        model.rates = _checked_rates(rates, self.n_states)
        model.frequencies = self.frequencies
        model._eigen = None
        return model

    def with_frequencies(self, frequencies: np.ndarray) -> "SubstitutionModel":
        """New model with replaced frequencies (exchangeabilities kept)."""
        return SubstitutionModel(self.rates, frequencies)

    def normalized_rates(self) -> np.ndarray:
        """Exchangeabilities scaled so the last entry (GT for DNA) is 1."""
        return self.rates / self.rates[-1]

    def __repr__(self) -> str:
        r = ", ".join(f"{x:.4g}" for x in self.rates)
        f = ", ".join(f"{x:.4g}" for x in self.frequencies)
        return f"SubstitutionModel(rates=[{r}], freqs=[{f}])"


# ---------------------------------------------------------------------- #
# Named DNA models
# ---------------------------------------------------------------------- #
def GTR(rates, frequencies) -> SubstitutionModel:
    """General Time Reversible model (6 rates, 4 free frequencies)."""
    return SubstitutionModel(np.asarray(rates, dtype=float), frequencies)


def JC69() -> SubstitutionModel:
    """Jukes–Cantor 1969: equal rates, uniform frequencies."""
    return SubstitutionModel(np.ones(6), np.full(4, 0.25))


def K80(kappa: float = 2.0) -> SubstitutionModel:
    """Kimura 1980: transition/transversion ratio κ, uniform frequencies."""
    if kappa <= 0:
        raise ModelError("kappa must be positive")
    # order AC, AG, AT, CG, CT, GT — AG and CT are transitions
    return SubstitutionModel(
        np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0]), np.full(4, 0.25)
    )


def F81(frequencies) -> SubstitutionModel:
    """Felsenstein 1981: equal exchangeabilities, free frequencies."""
    return SubstitutionModel(np.ones(6), frequencies)


def HKY85(kappa: float, frequencies) -> SubstitutionModel:
    """Hasegawa–Kishino–Yano 1985: κ plus free frequencies."""
    if kappa <= 0:
        raise ModelError("kappa must be positive")
    return SubstitutionModel(
        np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0]), frequencies
    )
