"""Halfspace systems, exact Fourier-Motzkin feasibility, and the anchor-point
construction.

For a polytope K with facet normals u, the anchor system collects the
halfspaces  a . u <= n/(n+1) h_K(u) - 1/(n+1) h_K(-u).  Any point of the
intersection certifies the support inequality h_{-K+a}(u) <= n h_{K-a}(u) at
every facet normal, which is the exact input the first-mixed-volume bound
needs.  The centroid c always lies in it: at a = c the row for u reads
h_{K0}(-u) <= n h_{K0}(u) for the centered body K0 = K - c, which is the
inclusion -K0 in nK0 that ``tightness_profile`` checks row by row.  So the
anchor point is that witness, checked, never searched for.  The region is the
single point {c} exactly when the rows tight at c positively span R^n.

Below the ``System`` API every row is an integer pair (normal, rhs):
``_integer_rows`` scales each row, normal and rhs together, by one positive
multiplier, which changes no Farkas sign and no Fourier-Motzkin bound.
Fractions appear only in the ``System`` rows and in the witness that
Fourier-Motzkin reads back.

Fourier-Motzkin elimination has one entry, ``_fm_rows``, which takes those
integer rows, needs no pivoting rules, and reads off uniqueness for free
(Schrijver, *Theory of Linear and Integer Programming*, section 12.2).
``fm_feasible`` scales a ``System`` and calls it; the uniqueness test on the
tight rows and the Helly audit pass their integer rows to it directly.

The Helly audit decides each (n+1)-row subsystem Aa <= b by a Farkas
certificate instead (Schrijver, section 7.3).  The cofactor vector
lam_i = (-1)^i det(A without row i) spans the left kernel of A whenever
rank A = n, so the subsystem is infeasible iff lam or -lam is componentwise
>= 0 with that sign giving lam . b < 0.  When lam = 0, rank A < n and FM
decides the subsystem.  A set of n rows lies in many (n+1)-subsets, so the
audit takes each n-row determinant once, on first use, into one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import mul

from .errors import (
    DimensionMismatch,
    TheoremViolation,
    ZeroDirection,
)
from .geometry import Polytope, _idot, check_subset_cap, transform
from .inclusion import TightnessProfile, tightness_profile
from .linalg import int_det, scale_to_integers
from .rationals import Point, Rat, Vector, as_rat, as_vector, dot, is_zero_vector

@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace {a : a . normal <= rhs}; the normal is unnormalized."""

    normal: Vector
    rhs: Rat

    def __post_init__(self):
        if is_zero_vector(self.normal):
            raise ZeroDirection("halfspace normal must be nonzero")

    def contains(self, point) -> bool:
        return dot(self.normal, point) <= self.rhs


@dataclass(frozen=True)
class System:
    """Finite conjunction of halfspaces in a fixed ambient dimension."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        if not self.halfspaces:
            raise ValueError("a system needs at least one halfspace")
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise DimensionMismatch("halfspace normal of wrong length")

    def contains(self, point) -> bool:
        return all(h.contains(point) for h in self.halfspaces)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Point | None
    unique: bool


def make_system(dim: int, rows) -> System:
    """Rows are (normal, rhs) pairs with rational entries."""
    return System(dim, tuple(HalfSpace(as_vector(w, dim), as_rat(b)) for w, b in rows))


_Row = tuple[tuple[int, ...], int]


def _integer_rows(system: System) -> list[_Row]:
    """Each row as an integer normal and an integer rhs, scaled together by
    one positive multiplier."""
    rows = []
    for h in system.halfspaces:
        (row,), _ = scale_to_integers([h.normal + (h.rhs,)])
        rows.append((row[:-1], row[-1]))
    return rows


def _canonical_rows(rows) -> tuple[list[_Row], bool]:
    """Merge integer rows with the same direction and drop dominated ones.

    Rows are keyed by their primitive coefficients w / g; of the rows with
    one key, the first with the least rhs / g is kept (compared by
    cross-multiplication), then divided by the gcd of all its entries.
    Constant rows are consumed here; a violated one makes the system
    infeasible.
    """
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for coeffs, rhs in rows:
        g = gcd(*coeffs)
        if g == 0:
            if rhs < 0:
                return [], False
            continue
        key = tuple(c // g for c in coeffs)
        kept = best.get(key)
        if kept is None or rhs * kept[1] < kept[0] * g:
            best[key] = (rhs, g)
    out = []
    for key, (rhs, g) in best.items():
        d = gcd(g, rhs)
        s = g // d
        out.append((tuple(s * c for c in key), rhs // d))
    return out, True


def _eliminate(rows: list[_Row], k: int) -> tuple[list[_Row], bool]:
    """Project out variable index k; returns (rows, still-consistent).

    Each pair of rows with opposite signs at k makes one new row, so a step
    over more pairs than ``GODBERSEN_SUBSET_CAP`` raises CombinatorialBlowup
    before combining any.
    """
    zero, pos, neg = [], [], []
    for coeffs, rhs in rows:
        c = coeffs[k]
        if c == 0:
            zero.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    check_subset_cap(len(pos) * len(neg), "Fourier-Motzkin step", "row pairs")
    combined = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = -nc[k], pc[k]
            coeffs = tuple(a * x + b * y for x, y in zip(pc, nc))
            combined.append((coeffs, a * pr + b * nr))
    return _canonical_rows(combined)


def fm_feasible(system: System) -> FeasibilityResult:
    """Exact Fourier-Motzkin feasibility with a deterministic witness: the
    system's ``_integer_rows`` decided by ``_fm_rows``."""
    return _fm_rows(_integer_rows(system), system.dim)


def _fm_rows(rows: list[_Row], n: int) -> FeasibilityResult:
    """Fourier-Motzkin feasibility of integer rows (w, b), each meaning
    w . x <= b for x in R^n, with a deterministic witness.

    The elimination runs variables from the last to the first.  The
    back-substitution picks each coordinate in its remaining interval: the
    midpoint (0 if unconstrained, the finite endpoint moved inward by 1 if
    bounded on one side only).  The feasible region is a single point
    exactly when every interval collapses.  The witness so far is kept as
    integer numerators over one common denominator D > 0, so a row's bound
    on the next coordinate is an integer p over q D with q > 0, and bounds
    are compared by cross-multiplication; each coordinate becomes a Fraction
    at the end.
    """
    stage, ok = _canonical_rows(rows)
    stages: list[list[_Row]] = [stage]
    for k in range(n - 1, 0, -1):
        if not ok:
            break
        stage, ok = _eliminate(stage, k)
        stages.append(stage)
    if not ok:
        return FeasibilityResult(False, None, False)

    nums: list[int] = []
    den = 1
    unique = True
    for k in range(n):
        # a row c x_k <= rhs - sum_j coeffs[j] nums[j] / D bounds x_k by
        # resid / (c D): from above if c > 0, from below as -resid / (-c D)
        lo: tuple[int, int] | None = None
        hi: tuple[int, int] | None = None
        for coeffs, rhs in stages[n - 1 - k]:
            c = coeffs[k]
            if c == 0:
                continue
            resid = rhs * den - sum(map(mul, coeffs, nums))
            if c > 0:
                if hi is None or resid * hi[1] < hi[0] * c:
                    hi = (resid, c)
            elif lo is None or resid * lo[1] < lo[0] * c:
                lo = (-resid, -c)
        if lo is not None and hi is not None:
            cross_lo, cross_hi = lo[0] * hi[1], hi[0] * lo[1]
            if cross_lo > cross_hi:
                return FeasibilityResult(False, None, False)
            p, q = cross_lo + cross_hi, 2 * lo[1] * hi[1]
            unique = unique and cross_lo == cross_hi
        elif lo is not None:
            p, q = lo[0] + lo[1] * den, lo[1]
            unique = False
        elif hi is not None:
            p, q = hi[0] - hi[1] * den, hi[1]
            unique = False
        else:
            p, q = 0, 1
            unique = False
        g = gcd(p, q)
        p, q = p // g, q // g
        nums = [x * q for x in nums] + [p]
        den *= q
    return FeasibilityResult(True, tuple(Fraction(x, den) for x in nums), unique)


def ak_system(K: Polytope) -> System:
    """One halfspace per facet normal u of K:
    a . u <= n/(n+1) h_K(u) - 1/(n+1) h_K(-u)."""
    n = K.dim
    m = K._int_scale
    rows = []
    for f in K.facets:
        # h_K(-u) = -low / m for the least value low of u on the lattice points
        low = min(_idot(f.normal, p) for p in K._int_vertices)
        rows.append((f.normal, Fraction(n * f._offset_num + low, m * (n + 1))))
    return make_system(n, rows)


def anchor_unique(profile: TightnessProfile) -> bool:
    """True iff the anchor region is the single point {c}.

    The region is a polyhedron containing c, so it is {c} iff no d != 0 has
    u . d <= 0 on every row tight at c, i.e. iff the tight normals positively
    span R^n.  That needs at least n+1 of them; given that many, FM decides
    the homogeneous system of the tight rows, and its ``unique`` flag is exact.
    """
    tight = [e.normal for e in profile.entries if e.tight]
    n = len(profile.entries[0].normal)
    if len(tight) < n + 1:
        return False
    return _fm_rows([(u, 0) for u in tight], n).unique


def ak_feasibility(K: Polytope) -> FeasibilityResult:
    """The centroid as anchor witness, with exact uniqueness.

    The witness is checked by the exact row comparison of
    ``tightness_profile``, which raises TheoremViolation if the support
    inequality h_{-K}(u) + (n+1) c . u <= n h_K(u) fails at any facet normal;
    that would be a bug, never a property of the input body.
    """
    return FeasibilityResult(True, K.centroid, anchor_unique(tightness_profile(K)))


def _farkas_infeasible(rows: list[_Row], subset: tuple[int, ...],
                       minors: dict[tuple[int, ...], int]) -> bool | None:
    """Decide the n+1 integer rows ``rows[i]``, i in ``subset`` (sorted), of
    a . w <= b in R^n by their Farkas certificate.

    True if infeasible, False if feasible, None if rank < n (no certificate:
    the cofactor vector lam is zero).  A nonzero lam spans the left kernel,
    so the rows are infeasible iff some y = t lam >= 0 has y . b < 0.  Once
    lam has entries of both signs no such y exists, and the remaining
    cofactors are not needed.  ``minors`` maps a sorted n-tuple of row
    indices to the determinant of those normals; a missing entry is taken
    here and stored.
    """
    lam = []
    pos = neg = False
    for i in range(len(subset)):
        key = subset[:i] + subset[i + 1:]
        d = minors.get(key)
        if d is None:
            d = minors[key] = int_det([rows[j][0] for j in key])
        c = -d if i % 2 else d
        pos |= c > 0
        neg |= c < 0
        if pos and neg:
            return False
        lam.append(c)
    if not (pos or neg):
        return None
    lam_b = sum(c * rows[j][1] for c, j in zip(lam, subset))
    return lam_b < 0 if pos else lam_b > 0


def helly_audit(system: System) -> bool:
    """Check every (dim+1)-subset of halfspaces for feasibility.

    Vacuously true when there are fewer than dim+1 halfspaces.  Otherwise the
    system is scaled to integer rows once, and Fourier-Motzkin decides the
    full system on them first, so a step-cap blowup comes before any subset.
    Each subset is then decided by its Farkas cofactor certificate
    (``_farkas_infeasible``), read from one table of n-row determinants that
    fills as the subsets ask for them; a rank-deficient subset, which has no
    certificate, goes to Fourier-Motzkin on its own integer rows.  The
    outcome must agree with full-system feasibility (Helly's theorem for a
    finite family of convex sets), so any disagreement raises.
    """
    n = system.dim
    count = len(system.halfspaces)
    if count < n + 1:
        return True
    check_subset_cap(comb(count, n + 1), "Helly audit")
    ints = _integer_rows(system)
    full = _fm_rows(ints, n).feasible
    minors: dict[tuple[int, ...], int] = {}
    all_ok = True
    for subset in combinations(range(count), n + 1):
        infeasible = _farkas_infeasible(ints, subset, minors)
        if infeasible is None:
            infeasible = not _fm_rows([ints[i] for i in subset], n).feasible
        if infeasible:
            all_ok = False
            break
    if all_ok != full:
        raise TheoremViolation("subset audit disagrees with full feasibility")
    return all_ok


def gl_invariance_check(K: Polytope, mat) -> bool:
    """The anchor construction is equivariant under invertible linear maps.

    Checks that K and its image agree on uniqueness and that the mapped
    witness A a satisfies the image's anchor system (the image's facet normals
    are the inverse-transpose images of K's, up to positive scale, so the two
    systems correspond row by row).  A singular matrix raises SingularMatrix
    from ``transform``.
    """
    a = tuple(tuple(as_rat(c) for c in row) for row in mat)
    image = transform(K, a)
    res_k = ak_feasibility(K)
    res_img = ak_feasibility(image)
    mapped = tuple(sum(a[r][c] * res_k.witness[c] for c in range(K.dim))
                   for r in range(K.dim))
    return res_k.unique == res_img.unique and ak_system(image).contains(mapped)
