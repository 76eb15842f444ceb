"""Topology of the smooth degree-d hypersurface S in P^{n-1} and the spaces
fibered over it.

The integral cohomology of S is free, with rank 1 in each even degree of
[0, 2n-4] away from the middle and rank b in the middle degree n-2.  Cupping
with the hyperplane class h is an isomorphism away from the middle degrees,
multiplication by d on the rank-1 groups around the middle when n is odd, and
an injection with free cokernel / a surjection when n is even.  The
compactly supported Gysin sequence of a C^x-bundle with Euler class +-h
turns those kernels and cokernels into the cone profile, a closed form in n,
d and b; the cyclic covers of the intermediate divisors are Poincare dual to
it.  The extensions that appear all split because the quotient term is free.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .domain import SURFACE
from .groups import FgAbGroup, GradedGroup, free_group


def euler_characteristic(n: int, d: int) -> int:
    """chi of a smooth degree-d hypersurface in P^{n-1}."""
    SURFACE.check(n, d)
    numerator = (1 - d) ** n - 1
    if numerator % d:
        raise AssertionError("chi formula produced a non-integer")
    return n + numerator // d


def middle_rank(n: int, d: int) -> int:
    """Rank b of the middle cohomology H^{n-2}(S), from chi."""
    chi = euler_characteristic(n, d)
    b = (n - 1) - chi if n % 2 else chi - (n - 2)
    if b < 0 or (n % 2 == 0 and b < 1):
        raise AssertionError(f"middle rank {b} out of range for (n, d) = ({n}, {d})")
    return b


def milnor_number(n: int, d: int) -> int:
    """(d-1)^n, the Milnor number of a homogeneous isolated singularity."""
    return (d - 1) ** n


def milnor_fiber_euler(n: int, d: int) -> int:
    """chi of the Milnor fiber, a bouquet of (d-1)^n spheres of dimension n-1."""
    return 1 + (-1) ** (n - 1) * milnor_number(n, d)


class HypersurfaceData(NamedTuple):
    n: int
    d: int
    middle: int
    milnor: int
    euler: int


@lru_cache(maxsize=None)
def hypersurface_data(n: int, d: int) -> HypersurfaceData:
    return HypersurfaceData(n, d, middle_rank(n, d), milnor_number(n, d),
                            euler_characteristic(n, d))


@lru_cache(maxsize=None)
def cone_compact_cohomology(n: int, d: int) -> GradedGroup:
    """H^._c of the punctured affine cone over S.

    The cone minus its vertex is the complement of the zero section in the
    tautological line bundle, a C^x-bundle over S with Euler class -h.  Its
    Gysin sequence puts in degree k the cokernel of cupping with h on
    H^(k-3)(S) beside the free kernel of cupping on H^(k-2)(S), and the
    extension splits.  Cupping is an isomorphism away from the middle, so
    what is left is Z in degrees 1 and 2n-2 and Z^c in degrees n-1 and n,
    where c = b for odd n and b - 1 for even n; for odd n, multiplication by
    d on H^(n-3) adds Z/d in degree n.
    """
    b = middle_rank(n, d)
    c = b if n % 2 else b - 1
    return GradedGroup.from_dict({
        1: free_group(1),
        n - 1: free_group(c),
        n: FgAbGroup(c, (d,) if n % 2 and d > 1 else ()),
        2 * n - 2: free_group(1),
    })


@lru_cache(maxsize=None)
def milnor_fiber_compact_cohomology(n: int, d: int) -> GradedGroup:
    """H^._c of the global Milnor fiber {h = 1}.

    The fiber is homotopy equivalent to a bouquet of (d-1)^n spheres of
    dimension n-1 and is a smooth (2n-2)-manifold, so duality puts the two
    groups at degrees n-1 and 2n-2.
    """
    SURFACE.check(n, d)
    return GradedGroup.from_dict({
        n - 1: free_group(milnor_number(n, d)),
        2 * n - 2: free_group(1),
    })


def cover_homology(n: int, d: int, i: int, m: int) -> GradedGroup:
    """Integral homology of the degree-N cyclic cover of the open part of the
    exceptional m-divisor E_i, for i in [-floor(m/d), -1].

    E_i is the normalization of the pair (m + i*d, -i), which is the first
    blow-up divisor (0, 1) exactly when m + i*d = 0; its cover is the Milnor
    fiber, a bouquet of spheres.  Every intermediate cover is a C^x-bundle
    over S with Euler class +-h; its homology is the Poincare dual
    (k -> 2n-2-k) of the cone profile and depends only on n and d.
    """
    SURFACE.check(n, d, m)
    if not -(m // d) <= i <= -1:
        raise ValueError(f"index {i} outside [-{m // d}, -1]")
    if m + i * d == 0:
        return GradedGroup.from_dict({0: free_group(1),
                                      n - 1: free_group(milnor_number(n, d))})
    profile = cone_compact_cohomology(n, d)
    return GradedGroup(tuple((2 * n - 2 - k, g) for k, g in profile.entries))
