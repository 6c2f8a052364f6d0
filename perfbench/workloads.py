"""Request generators for the three benchmark workloads.

A request is one argv list for ``fhpt.cli.main``.  Every workload is a
sequence of rounds; a round is a fixed template of request slots whose
parameters come from the seed.  Runs always attempt whole rounds, so the
share of each request class -- and of the one known-failing class -- is the
same in every run, whatever the seed or the run length.

Parameters are drawn from golden-ratio sequences (``_Spread``) instead of
independent uniforms: any prefix of such a sequence covers its interval
evenly.  On cli-tables, with thousands of requests per run, the seed sets
the start of each sequence.  On verify-sweep a run holds only 32 requests
whose cost depends on the order nu, so there the seed only jitters a fixed
start by up to SWEEP_JITTER of the range: every seed sends new strengths
with nearly the same cost profile, which keeps run-to-run spread low.
"""

from __future__ import annotations

import math
import random

_PHI = 0.6180339887498949

# verify-sweep classes of the Bessel order nu = 2L = 2A - 1 (A >= 1/2)
NU_MAX = 40
NEAR_INT_BAND = 1e-4  # |nu - m| below this takes the five-point stencil in bessel_k
# near-integer requests cost 1.8 s at m <= 3 rising to 5.2 s at m = 40; one
# per round with m <= 20 keeps them at about a quarter of the run time
NEAR_M_MAX = 20
GENERIC_NU_MIN = 1.5  # below this the Gram checks fail at default nmax (see README)
GENERIC_INT_GAP = 0.01  # generic orders keep this far from an integer
SWEEP_JITTER = 0.03

# The known Gram fault: 0 < nu <= 0.5 makes `verify` fail gram-identity and
# gram-order-doubling.  These inputs do not depend on the seed.
FAULT_NU_LO, FAULT_NU_HI = 0.1, 0.5

# cli-tables parameter ranges
TABLE_A = (0.8, 6.0)
TABLE_LEVEL_MAX = 100
TABLE_SAMPLES_MAX = 2000
TABLE_Z = (0.05, 350.0)


class _Spread:
    """Golden-ratio low-discrepancy stream on [0, 1).

    The start is uniform from the seed, or, with ``jitter``, 0.5 moved by at
    most jitter / 2 either way.
    """

    def __init__(self, rng: random.Random, jitter: float | None = None):
        self.u = rng.random() if jitter is None else 0.5 + jitter * (rng.random() - 0.5)

    def next(self) -> float:
        self.u = (self.u + _PHI) % 1.0
        return self.u


class _Permutation:
    """Distinct integers of [lo, hi] in a well-spread seeded order; restarts when used up."""

    def __init__(self, rng: random.Random, lo: int, hi: int, jitter: float | None = None):
        self.lo, self.size = lo, hi - lo + 1
        self.stream = _Spread(rng, jitter)
        self.seen: set[int] = set()

    def next(self) -> int:
        if len(self.seen) == self.size:
            self.seen.clear()
        while True:
            v = int(self.size * self.stream.next())
            if v not in self.seen:
                self.seen.add(v)
                return self.lo + v


def a_from_nu(nu: float) -> float:
    """Well strength with Bessel order 2L = nu in natural units."""
    return 0.5 * (1.0 + nu)


def _verify(nu: float) -> list[str]:
    return ["verify", "--format", "json", "--A", repr(a_from_nu(nu))]


def fault_nu(k: int) -> float:
    """k-th order of the known-fault class; a fixed sequence, independent of the seed."""
    return FAULT_NU_LO + (FAULT_NU_HI - FAULT_NU_LO) * ((0.5 + k * _PHI) % 1.0)


def generic_nu(u: float) -> float:
    """Map u in [0, 1) to a generic order in [GENERIC_NU_MIN, NU_MAX], away from integers."""
    nu = GENERIC_NU_MIN + (NU_MAX - GENERIC_NU_MIN) * u
    m = round(nu)
    if abs(nu - m) < GENERIC_INT_GAP:
        nu = m + (GENERIC_INT_GAP if nu >= m else -GENERIC_INT_GAP)
    return nu


class VerifySweep:
    """`verify` at a new well strength on every request, so every K-grid is built cold.

    Round of eight: four integer orders (one from each quarter of 0..40),
    two generic orders (one from each half of the generic range), one
    near-integer order m + delta with m in 1..20, and one order from the
    known-fault band.
    """

    name = "verify-sweep"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.rng = rng
        j = SWEEP_JITTER
        self.ints = [_Permutation(rng, lo, hi, j) for lo, hi in ((0, 9), (10, 19), (20, 29), (30, NU_MAX))]
        self.generic = [_Spread(rng, j), _Spread(rng, j)]
        self.near_m = _Permutation(rng, 1, NEAR_M_MAX, j)
        self.near_mag = _Spread(rng)
        self.k = 0

    def warmup(self) -> list[list[str]]:
        # an order above the sweep range: imports everything and fills the
        # Gauss-Legendre rule caches without touching any timed K-grid
        return [_verify(NU_MAX + 1.5)]

    def _near_nu(self) -> float:
        delta = 0.99 * NEAR_INT_BAND * 10.0 ** (-2.0 * self.near_mag.next())
        return self.near_m.next() + (delta if self.rng.random() < 0.5 else -delta)

    def next_round(self) -> list[tuple[str, list[str]]]:
        slots = [("int", _verify(float(p.next()))) for p in self.ints]
        slots += [("generic", _verify(generic_nu(0.5 * (h + s.next())))) for h, s in enumerate(self.generic)]
        slots.append(("near_int", _verify(self._near_nu())))
        slots.append(("fault", _verify(fault_nu(self.k))))
        self.k += 1
        self.rng.shuffle(slots)
        return slots


class VerifyRepeat:
    """`verify` cycled over three strengths that the warm-up has visited.

    Every K-grid and Gauss-Legendre rule is then a cache hit, and a request
    costs only the warm part of `verify`.  The seed picks one integer order
    in 2..40, one generic order in [GENERIC_NU_MIN, NU_MAX] and one
    near-integer order m +- delta with m in 1..NEAR_M_MAX; a round sends
    the three in a seeded order.  The warm part costs about the same at
    every order of a class, so the seed moves the inputs but not the cost.
    """

    name = "verify-repeat"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.rng = rng
        near_m = 1 + int(NEAR_M_MAX * rng.random())
        delta = 0.99 * NEAR_INT_BAND * 10.0 ** (-2.0 * rng.random())
        self.strengths = [
            ("int", _verify(float(2 + int(39 * rng.random())))),
            ("generic", _verify(generic_nu(rng.random()))),
            ("near_int", _verify(near_m + (delta if rng.random() < 0.5 else -delta))),
        ]

    def warmup(self) -> list[list[str]]:
        return [argv for _, argv in self.strengths]

    def next_round(self) -> list[tuple[str, list[str]]]:
        slots = list(self.strengths)
        self.rng.shuffle(slots)
        return slots


def _polar(r: float, theta: float) -> str:
    return f"{r!r}@{theta!r}"


class CliTables:
    """Seeded mix of spectrum, wavefunction, coherent and expect, two of each per round.

    Well strengths in TABLE_A; levels up to 100; up to 2,000 wavefunction
    samples on both intervals; |z| log-uniform over TABLE_Z with a uniform
    phase, one draw from each half of the log range per command and round.
    """

    name = "cli-tables"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.rng = rng
        self.a = _Spread(rng)
        self.level = _Spread(rng)
        self.samples = _Spread(rng)
        self.zmag = _Spread(rng)
        self.phase = _Spread(rng)

    def warmup(self) -> list[list[str]]:
        # strength 6.5 lies outside the timed range
        return [
            ["spectrum", "--A", "6.5", "--nmax", "5"],
            ["wavefunction", "--A", "6.5", "--n", "3", "--samples", "9"],
            ["coherent", "--A", "6.5", "--z", "2@0.5"],
            ["expect", "--A", "6.5", "--z", "2@0.5", "--format", "json"],
        ]

    def _common(self) -> list[str]:
        lo, hi = TABLE_A
        fmt = "json" if self.rng.random() < 0.5 else "csv"
        return ["--A", repr(lo + (hi - lo) * self.a.next()), "--format", fmt]

    def _z(self, half: int) -> str:
        lo, hi = (math.log(v) for v in TABLE_Z)
        mid = 0.5 * (lo + hi)
        a, b = (lo, mid) if half == 0 else (mid, hi)
        r = math.exp(a + (b - a) * self.zmag.next())
        return _polar(r, math.pi * (2.0 * self.phase.next() - 1.0))

    def next_round(self) -> list[tuple[str, list[str]]]:
        slots = []
        for _ in range(2):
            nmax = int((TABLE_LEVEL_MAX + 1) * self.level.next())
            slots.append(("spectrum", ["spectrum", *self._common(), "--nmax", str(nmax)]))
        for interval in ("full", "half"):
            n = int((TABLE_LEVEL_MAX + 1) * self.level.next())
            samples = int(math.exp(math.log(TABLE_SAMPLES_MAX) * self.samples.next()))
            argv = ["wavefunction", *self._common(), "--n", str(n), "--samples", str(samples), "--interval", interval]
            slots.append(("wavefunction", argv))
        for half in (0, 1):
            slots.append(("coherent", ["coherent", *self._common(), "--z", self._z(half)]))
            slots.append(("expect", ["expect", *self._common(), "--z", self._z(half)]))
        self.rng.shuffle(slots)
        return slots


def make(name: str, seed: int):
    """Request generator for the named workload."""
    table = {cls.name: cls for cls in (VerifySweep, VerifyRepeat, CliTables)}
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(table)}")
    return table[name](seed)
