"""Caloric polynomial families: an exact rational path and a float path.

v_alpha is the alpha-th xi-derivative at 0 of exp(<x, xi> + t <A xi, xi>);
w_alpha uses -t and solves the adjoint equation.  Both are built by the
heat-polynomial recurrence (Rosenbloom & Widder, Trans. AMS 92, 1959)

    v_alpha = x_j v_(alpha - e_j) + 2 t sum_k a_jk (alpha - e_j)_k v_(alpha - e_j - e_k)

with j the first nonzero index of alpha (and -2t for the w family).  A
multi-index alpha is a plain tuple of n non-negative ints.  The recurrence
is run two ways:

* exactly, in Fraction arithmetic (``caloric_poly``), so the annihilation
  identities hold with zero tolerance.  ``apply_parabolic_operator``,
  ``decompose``, ``CaloricPolynomial.evaluate`` and the CLI's
  ``poly-table`` and caloric-poly data use this path;
* in floats over a batch of points (``basis_matrix``), one multiply-add per
  family member over members already evaluated.  The solver's design
  matrix and its probe evaluations use this path; float entries of A are
  dyadic, so both paths start from the same coefficients.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import _as_xt, fundamental_solution
from .errors import NotCaloric
from .quadrature import gauss_legendre, tensor_rule


def _multi_index(alpha, n):
    """alpha as a tuple of n non-negative ints; ValueError otherwise."""
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index components must be non-negative")
    if len(alpha) != n:
        raise ValueError(f"multi-index length {len(alpha)} does not match dimension {n}")
    return alpha


def enumerate_basis(n, max_degree):
    """All multi-indices with |alpha| <= max_degree in graded-lex order, as
    tuples of n non-negative ints.

    The count is the binomial C(n + max_degree, n).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out = []
    for deg in range(max_degree + 1):
        out.extend(sorted(compositions(deg, n)))
    return out


@dataclass
class CaloricPolynomial:
    """Polynomial in (x_1..x_n, t) with Fraction coefficients.

    terms maps (beta, m) -> coefficient for the monomial x^beta t^m; zero
    coefficients are dropped so equality is structural.  parity/alpha are set
    for members of the v/w families and left None for general polynomials.
    """

    n: int
    terms: dict
    parity: str | None = None
    alpha: tuple | None = None
    _compiled: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        for (beta, m), c in self.terms.items():
            c = Fraction(c)
            if c != 0:
                clean[(tuple(int(b) for b in beta), int(m))] = c
        self.terms = clean

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree_in_x(self, j):
        return max((beta[j] for (beta, _m) in self.terms), default=0)

    def degree_in_t(self):
        return max((m for (_beta, m) in self.terms), default=0)

    def trace_t0(self):
        """Coefficients of the restriction to t = 0, as beta -> Fraction."""
        return {beta: c for (beta, m), c in self.terms.items() if m == 0}

    # -- arithmetic (enough for operator application and decomposition) ----

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return CaloricPolynomial(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) - c
        return CaloricPolynomial(self.n, out)

    def scaled(self, c):
        c = Fraction(c)
        return CaloricPolynomial(self.n, {k: c * v for k, v in self.terms.items()})

    def diff_x(self, j):
        out = {}
        for (beta, m), c in self.terms.items():
            if beta[j] > 0:
                nb = list(beta)
                nb[j] -= 1
                key = (tuple(nb), m)
                out[key] = out.get(key, Fraction(0)) + c * beta[j]
        return CaloricPolynomial(self.n, out)

    def diff_t(self):
        out = {}
        for (beta, m), c in self.terms.items():
            if m > 0:
                key = (beta, m - 1)
                out[key] = out.get(key, Fraction(0)) + c * m
        return CaloricPolynomial(self.n, out)

    # -- evaluation --------------------------------------------------------

    def _compile(self):
        if self._compiled is None:
            keys = sorted(self.terms)
            betas = np.array([k[0] for k in keys], dtype=np.int64).reshape(len(keys), self.n)
            ms = np.array([k[1] for k in keys], dtype=np.int64)
            coeffs = np.array([float(self.terms[k]) for k in keys])
            self._compiled = (betas, ms, coeffs)
        return self._compiled

    def evaluate(self, points, times):
        """Float evaluation at points (m, n) with times (m,)."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        t = np.asarray(times, dtype=float).reshape(-1)
        if not self.terms:
            return np.zeros(x.shape[0])
        betas, ms, coeffs = self._compile()
        max_b = betas.max(initial=0)
        max_m = ms.max(initial=0)
        # power tables: pow_x[j][d] = x_j^d over the batch
        pow_x = np.ones((self.n, max_b + 1, x.shape[0]))
        for j in range(self.n):
            for d in range(1, max_b + 1):
                pow_x[j, d] = pow_x[j, d - 1] * x[:, j]
        pow_t = np.ones((max_m + 1, x.shape[0]))
        for d in range(1, max_m + 1):
            pow_t[d] = pow_t[d - 1] * t
        acc = np.zeros(x.shape[0])
        for k in range(len(coeffs)):
            term = np.full(x.shape[0], coeffs[k])
            for j in range(self.n):
                if betas[k, j]:
                    term = term * pow_x[j, betas[k, j]]
            if ms[k]:
                term = term * pow_t[ms[k]]
            acc += term
        return acc

    def value(self, points, times):
        """evaluate(points, times), so that a polynomial can serve as a field
        for BoundaryData.from_field.  A method rather than an alias, so that
        a wrapped or overridden evaluate is the one called."""
        return self.evaluate(points, times)

    def evaluate_exact(self, x, t):
        """Exact evaluation at rational (x, t)."""
        x = [Fraction(v) for v in x]
        t = Fraction(t)
        acc = Fraction(0)
        for (beta, m), c in self.terms.items():
            term = c * t**m
            for j, b in enumerate(beta):
                term *= x[j] ** b
            acc += term
        return acc

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        """Schema: parity, alpha, and terms with decimal-string numerators."""
        items = []
        for (beta, m) in sorted(self.terms):
            c = self.terms[(beta, m)]
            items.append(
                {
                    "beta": list(beta),
                    "m": m,
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
            )
        return {
            "parity": self.parity,
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "terms": items,
        }

    @classmethod
    def from_json_dict(cls, data, n=None):
        terms = {}
        for item in data["terms"]:
            key = (tuple(item["beta"]), int(item["m"]))
            terms[key] = Fraction(int(item["num"]), int(item["den"]))
        if n is None:
            if data.get("alpha") is not None:
                n = len(data["alpha"])
            elif terms:
                n = len(next(iter(terms))[0])
            else:
                raise ValueError("cannot infer dimension of an empty polynomial")
        alpha = _multi_index(data["alpha"], n) if data.get("alpha") is not None else None
        return cls(n, terms, parity=data.get("parity"), alpha=alpha)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (beta, m) in sorted(self.terms, key=lambda k: (sum(k[0]) + 2 * k[1], k[1], k[0])):
            c = self.terms[(beta, m)]
            factors = []
            for j, b in enumerate(beta):
                if b == 1:
                    factors.append(f"x{j + 1}")
                elif b > 1:
                    factors.append(f"x{j + 1}^{b}")
            if m == 1:
                factors.append("t")
            elif m > 1:
                factors.append(f"t^{m}")
            body = "*".join(factors)
            if not body:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(body)
            elif c == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{c}*{body}")
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")


@lru_cache(maxsize=None)
def _family_terms(entries, n, alpha, sign):
    """Recurrence for the caloric family; sign +1 for v, -1 for w.

    Returns the immutable terms map for D^alpha_xi exp(<x,xi> + sign t <A xi,xi>)
    at xi = 0 as a tuple of ((beta, m), Fraction) pairs.
    """
    if all(a == 0 for a in alpha):
        return ((((0,) * n, 0), Fraction(1)),)
    j = next(i for i, a in enumerate(alpha) if a > 0)
    prev = list(alpha)
    prev[j] -= 1
    prev = tuple(prev)
    out = {}
    for (beta, m), c in _family_terms(entries, n, prev, sign):
        nb = list(beta)
        nb[j] += 1
        key = (tuple(nb), m)
        out[key] = out.get(key, Fraction(0)) + c
    for k in range(n):
        if prev[k] > 0:
            lower = list(prev)
            lower[k] -= 1
            coeff = Fraction(2 * sign) * entries[j][k] * prev[k]
            for (beta, m), c in _family_terms(entries, n, tuple(lower), sign):
                key = (beta, m + 1)
                out[key] = out.get(key, Fraction(0)) + coeff * c
    return tuple(sorted((k, v) for k, v in out.items() if v != 0))


def _family_sign(parity):
    """+1 for the v family, -1 for the w family; ValueError for any other parity."""
    if parity not in ("v", "w"):
        raise ValueError("parity must be 'v' or 'w'")
    return 1 if parity == "v" else -1


def caloric_poly(A, alpha, parity="v"):
    """The family member v_alpha (parity 'v') or w_alpha (parity 'w') for A.

    alpha is any sequence of A.n non-negative ints (ValueError otherwise);
    the result's ``alpha`` is it as a tuple.  Matrix entries are snapped to
    exact rationals; float entries are dyadic so the snap is lossless.
    """
    sign = _family_sign(parity)
    alpha = _multi_index(alpha, A.n)
    terms = dict(_family_terms(A.entries_exact, A.n, alpha, sign))
    return CaloricPolynomial(A.n, terms, parity=parity, alpha=alpha)


def _lowered(alpha, k):
    return alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]


def basis_matrix(A, alphas, parity, points, times):
    """Float values of the family members ``alphas`` at (points, times).

    Returns an (m, len(alphas)) array, column k holding v_alphas[k] (parity
    'v') or w_alphas[k] (parity 'w') at the m points, by the recurrence of
    the module docstring.  ``alphas`` must be closed downward (every
    alpha - e_j with alpha_j > 0 is in it), as a graded-lex prefix of
    ``enumerate_basis`` is; ValueError otherwise.
    """
    sign = _family_sign(parity)
    keys = [_multi_index(a, A.n) for a in alphas]
    x = np.atleast_2d(np.asarray(points, dtype=float))
    st = (2.0 * sign) * np.asarray(times, dtype=float).reshape(-1)
    row = {a: i for i, a in enumerate(keys)}
    for alpha in keys:
        for k in range(A.n):
            if alpha[k] and _lowered(alpha, k) not in row:
                raise ValueError(f"alphas are not closed downward: {alpha} "
                                 f"needs {_lowered(alpha, k)}")
    # rows are contiguous; each row combines rows of lower degree
    out = np.empty((len(keys), x.shape[0]))
    for i in sorted(range(len(keys)), key=lambda i: sum(keys[i])):
        alpha = keys[i]
        if not any(alpha):
            out[i] = 1.0
            continue
        j = next(k for k, a in enumerate(alpha) if a > 0)
        prev = _lowered(alpha, j)
        out[i] = x[:, j] * out[row[prev]]
        lower = [A.a[j, k] * prev[k] * out[row[_lowered(prev, k)]]
                 for k in range(A.n) if prev[k] > 0 and A.a[j, k] != 0.0]
        if lower:
            out[i] += st * sum(lower)
    return out.T


def apply_parabolic_operator(p, A, which="H"):
    """Apply H = E - d/dt or H* = E + d/dt exactly; returns a polynomial.

    E = sum_{h,k} a_hk d^2/dx_h dx_k with the rational snap of A.
    """
    if which not in ("H", "H*"):
        raise ValueError("which must be 'H' or 'H*'")
    entries = A.entries_exact
    acc = CaloricPolynomial(p.n, {})
    for h in range(p.n):
        dh = p.diff_x(h)
        for k in range(p.n):
            if entries[h][k] == 0:
                continue
            acc = acc + dh.diff_x(k).scaled(entries[h][k])
    dt = p.diff_t()
    return acc - dt if which == "H" else acc + dt


def decompose(p, A, parity="v"):
    """Write p as sum c_alpha * (family member), reading c_alpha off p(x, 0).

    Returns {alpha: c_alpha} keyed by multi-index tuples.  Raises
    NotCaloric, reporting the lowest-grade leftover term, when p is not in
    the span of the requested family.
    """
    coeffs = p.trace_t0()
    residual = p
    for alpha, c in coeffs.items():
        residual = residual - caloric_poly(A, alpha, parity).scaled(c)
    if not residual.is_zero():
        worst = min(residual.terms, key=lambda k: (sum(k[0]) + 2 * k[1], k[1], k[0]))
        raise NotCaloric(
            f"polynomial is not {parity}-caloric for this matrix; "
            f"leftover term x^{worst[0]} t^{worst[1]} with coefficient {residual.terms[worst]}",
            residual_term=(worst, residual.terms[worst]),
        )
    return coeffs


def moment_identity_check(A, alpha, point, resolution=80):
    """|quadrature of int G(x - y, t) y^alpha dy  -  v_alpha(x, t)|.

    The integral is taken over a box where the Gaussian tail is below 1e-16
    with a tensor Gauss-Legendre rule of ``resolution`` nodes per axis.
    """
    alpha = _multi_index(alpha, A.n)
    x, t = _as_xt(point)
    if t <= 0:
        raise ValueError("moment identity needs t > 0")
    # exp(-q/(4t)) <= exp(-|z|^2/(4 t eig_max)); tail below 1e-16 needs
    # |z| > sqrt(4 * 37 * t * eig_max)
    radius = np.sqrt(148.0 * t * A.eig_max)
    pts, weights = tensor_rule([gauss_legendre(resolution, xj - radius, xj + radius)
                                for xj in x])
    g = fundamental_solution(A, x[None, :] - pts, t)
    mono = np.ones(pts.shape[0])
    for j, a in enumerate(alpha):
        if a:
            mono = mono * pts[:, j] ** a
    quad = float(np.sum(weights * g * mono))
    exact = caloric_poly(A, alpha, "v").evaluate(x[None, :], np.array([t]))[0]
    return abs(quad - exact)
