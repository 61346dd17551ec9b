"""Random bond environments on the discrete torus.

A geometry is the lattice torus of side 2N in dimension d.  An environment
assigns one positive conductance to every nearest-neighbour bond (site x,
direction i), all confined to the ellipticity window [1/c, c].  Sampling is
a pure function of (law, geometry, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Most sites of a sampled torus (sites, not bytes: the rates take 8 d bytes a
# site, the walker's tables about 96 d).  At d = 3 effective_matrix peaks about
# 80 bytes a site above the interpreter (tracemalloc: 90 at N = 12, 82 at N =
# 24, the largest bench torus, 81 at N = 32) and the rates 24, so a solve at
# this bound needs about 0.45 GB (444 MB resident at N = 80, 4,096,000 sites).
MAX_SITES = 2 ** 22


class SizeGuardError(ValueError):
    """A torus, a dense solve or a walk above its size guard."""


class GeometryMismatchError(ValueError):
    """Two fields with different tori were combined."""


class SupportError(ValueError):
    """A disorder law whose support leaves the ellipticity window."""


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream ids).

    Uses numpy's splittable SeedSequence so that derived streams are
    independent and order-insensitive: replica 7 gets the same stream no
    matter how many replicas ran before it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(stream)))


@dataclass(frozen=True)
class TorusGeometry:
    """The torus Z^d / 2N Z^d with sites indexed by {0,...,2N-1}^d."""

    dimension: int
    half_period: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.half_period < 1:
            raise ValueError(f"half_period must be >= 1, got {self.half_period}")

    @property
    def side(self) -> int:
        return 2 * self.half_period

    @property
    def volume(self) -> int:
        return self.side ** self.dimension

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dimension

    @property
    def bond_count(self) -> int:
        return self.dimension * self.volume


@dataclass(frozen=True)
class DisorderLaw:
    """Single-bond marginal of the product environment measure.

    Kinds: uniform(a, b) and the finite laws constant(a), two_point(a, b, p)
    and discrete(values, probs), each drawn from its table of atoms
    (`atoms()`).  Support must be strictly positive; the ellipticity
    constant c is the smallest c >= 1 with support in [1/c, c].
    """

    kind: str
    params: tuple = ()
    probs: tuple = field(default=())

    def __post_init__(self):
        arity = {"constant": 1, "uniform": 2, "two_point": 3}.get(self.kind)
        if arity is not None and len(self.params) != arity:
            raise ValueError(f"{self.kind} law takes {arity} params, "
                             f"got {len(self.params)}")
        if arity is not None and self.probs:
            raise ValueError(f"{self.kind} law takes no probs, "
                             f"got {len(self.probs)}")
        atoms = self.atoms()
        if atoms is None:
            a, b = self.params
            if not (0 < a <= b):
                raise SupportError(f"uniform law needs 0 < a <= b, got ({a}, {b})")
            return
        values, probs = atoms
        if len(values) == 0 or len(values) != len(probs):
            raise ValueError(f"{self.kind} law needs matching values and probs")
        if min(values) <= 0:
            raise SupportError(f"{self.kind} law values must be positive, got {values}")
        # written so that a NaN probability fails too
        if not (all(q >= 0 for q in probs) and abs(sum(probs) - 1.0) <= 1e-12):
            raise ValueError(f"{self.kind} law probabilities must be >= 0 and "
                             f"sum to 1, got {probs}")

    @classmethod
    def constant(cls, a: float) -> "DisorderLaw":
        return cls("constant", (float(a),))

    @classmethod
    def uniform(cls, a: float, b: float) -> "DisorderLaw":
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def two_point(cls, a: float, b: float, p: float = 0.5) -> "DisorderLaw":
        return cls("two_point", (float(a), float(b), float(p)))

    def atoms(self) -> tuple[tuple, tuple] | None:
        """A finite law as (values, probabilities); None for the uniform law."""
        if self.kind == "constant":
            return self.params, (1.0,)
        if self.kind == "two_point":
            a, b, p = self.params
            return (a, b), (p, 1 - p)
        if self.kind == "discrete":
            return self.params, self.probs
        if self.kind != "uniform":
            raise ValueError(f"unknown law kind {self.kind!r}")
        return None

    def support_bounds(self) -> tuple[float, float]:
        atoms = self.atoms()
        ends = self.params if atoms is None else atoms[0]
        return min(ends), max(ends)

    def ellipticity(self) -> float:
        """Smallest c >= 1 such that the support lies in [1/c, c]."""
        lo, hi = self.support_bounds()
        return max(hi, 1.0 / lo, 1.0)

    def mean_inverse(self) -> float:
        """E[1/xi] under the law; exact for every supported kind."""
        atoms = self.atoms()
        if atoms is None:
            a, b = self.params
            return 1.0 / a if a == b else float(np.log(b / a) / (b - a))
        return float(sum(q / v for v, q in zip(*atoms)))

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        atoms = self.atoms()
        if atoms is None:
            return rng.uniform(*self.params, size)
        values, probs = atoms
        return rng.choice(np.asarray(values), size=size, p=np.asarray(probs))

    def to_json(self) -> dict:
        d = {"kind": self.kind, "params": list(self.params)}
        if self.kind == "discrete":
            d["probs"] = list(self.probs)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "DisorderLaw":
        return cls(d["kind"], tuple(d["params"]), tuple(d.get("probs", ())))


@dataclass(frozen=True)
class BondField:
    """One environment realization: a conductance per (site, direction).

    Rates are stored direction-major and C-ordered, whatever the input's
    order, as an array of shape (d, 2N, ..., 2N); component i holds
    xi_i(x), the rate of the bond (x, x + e_i).  External order (sampling
    order and linear bond ids) is site-major with direction fastest.
    Instances are immutable; move_table derives the walk's moves from them.
    """

    geometry: TorusGeometry
    ellipticity: float
    rates: np.ndarray

    def __post_init__(self):
        g = self.geometry
        r = np.array(self.rates, dtype=float, order="C")  # private; frozen below
        if r.shape != (g.dimension,) + g.grid_shape:
            raise ValueError(f"rates shape {r.shape} does not match geometry {g}")
        if not np.all(np.isfinite(r)):
            raise ValueError("rates must be finite")
        c = self.ellipticity
        if c < 1:
            raise ValueError(f"ellipticity must be >= 1, got {c}")
        if r.min() < 1.0 / c - 1e-12 or r.max() > c + 1e-12:
            raise SupportError(
                f"rates in [{r.min()}, {r.max()}] escape the window [1/{c}, {c}]")
        r.flags.writeable = False
        object.__setattr__(self, "rates", r)

    @property
    def dimension(self) -> int:
        return self.geometry.dimension


def move_table(fld: BondField) -> tuple[np.ndarray, np.ndarray]:
    """The moves of the walk out of every site: (rates, targets).

    Moves are numbered +e_1, -e_1, +e_2, ...; the jump x -> x + e_i has rate
    xi_i(x) and x -> x - e_i has rate xi_i(x - e_i).  Both arrays have shape
    (volume, 2d), rows over linear sites in C order; targets holds linear sites.
    """
    geom = fld.geometry
    xi = fld.rates
    idx = np.arange(geom.volume).reshape(geom.grid_shape)
    rates = np.stack([r for i in range(geom.dimension)
                      for r in (xi[i], np.roll(xi[i], 1, axis=i))], axis=-1)
    targets = np.stack([np.roll(idx, step, axis=i)
                        for i in range(geom.dimension) for step in (-1, 1)], axis=-1)
    return rates.reshape(geom.volume, -1), targets.reshape(geom.volume, -1)


def guard_sites(geometry: TorusGeometry):
    """Raise SizeGuardError above MAX_SITES sites, without building anything."""
    # side >= 2, so a dimension above MAX_SITES.bit_length() is over the
    # guard; the cap keeps the power small for any dimension
    if geometry.side ** min(geometry.dimension, MAX_SITES.bit_length()) > MAX_SITES:
        raise SizeGuardError(f"a torus of side {geometry.side} in dimension "
                             f"{geometry.dimension} exceeds the site guard "
                             f"{MAX_SITES}")


def sample_environment(law: DisorderLaw, geometry: TorusGeometry, seed: int) -> BondField:
    """Draw every bond i.i.d. from the law.  Deterministic given the seed.

    Bonds are filled in external (site-major, direction fastest) order, so
    for d = 1 a torus of side 2N consumes the first 2N draws of the stream:
    environments at different N with the same seed are nested.  Raises
    SizeGuardError, before any draw, above MAX_SITES sites.
    """
    guard_sites(geometry)
    rng = rng_for(seed)
    flat = law.draw(rng, (geometry.volume, geometry.dimension))
    rates = np.moveaxis(flat.reshape(geometry.grid_shape + (geometry.dimension,)), -1, 0)
    return BondField(geometry, law.ellipticity(), rates)


def periodize(fld: BondField, half_period: int) -> BondField:
    """Restriction of the environment to a smaller torus.

    The sub-torus of side 2n reads the same bond rates as the big torus on
    the box {0,...,2n-1}^d, so a family of sizes cut from one sample is the
    periodized sequence of a single environment.
    """
    if 2 * half_period > fld.geometry.side:
        raise ValueError(
            f"cannot periodize side {fld.geometry.side} down to {2 * half_period}")
    if 2 * half_period == fld.geometry.side:
        return fld
    box = (slice(None),) + (slice(0, 2 * half_period),) * fld.dimension
    return BondField(TorusGeometry(fld.dimension, half_period),
                     fld.ellipticity, fld.rates[box])


def resample_bonds(fld: BondField, bonds, law: DisorderLaw, seed: int) -> BondField:
    """Redraw the listed bonds (linear ids) i.i.d. from the law.

    All other bonds are untouched, so the Hamming distance to the input is
    at most len(bonds).  The law must fit the field's ellipticity window.
    """
    bonds = np.asarray(bonds, dtype=int)
    if bonds.size == 0:
        return fld
    if bonds.min() < 0 or bonds.max() >= fld.geometry.bond_count:
        raise IndexError(f"bond ids must lie in [0, {fld.geometry.bond_count})")
    lo, hi = law.support_bounds()
    c = fld.ellipticity
    if lo < 1.0 / c - 1e-12 or hi > c + 1e-12:
        raise SupportError(f"law support [{lo}, {hi}] escapes the window [1/{c}, {c}]")
    site_major = np.moveaxis(fld.rates, 0, -1).copy()  # external bond order
    site_major.reshape(-1)[bonds] = law.draw(rng_for(seed), bonds.shape)
    return BondField(fld.geometry, c, np.moveaxis(site_major, -1, 0))
