"""Layer spans for the traced run, taken from outside the program.

``Tracer.install`` replaces every binding of each named public function in
the loaded ``fhpt`` modules -- including the copies that ``from .special
import ...`` leaves in other modules -- with a timing wrapper, and
``uninstall`` puts the originals back.  A span records its name, start, end,
parent span and request number in ``array`` columns, which stay in memory
until ``save`` writes them once, at the end of the run.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (defining module, public functions whose calls it records)
SPANS = {
    "special.bessel_k": ("fhpt.special", ("bessel_k",)),
    "special.bessel_i": ("fhpt.special", ("bessel_i",)),
    "special.gegenbauer": ("fhpt.special", ("gegenbauer_poly", "gegenbauer_value")),
    "quadrature.gauss_legendre": ("fhpt.quadrature", ("gauss_legendre",)),
    "quadrature.k_integral": ("fhpt.quadrature", ("integrate_semi_infinite_k_weight",)),
    "model.basis": ("fhpt.model", ("build_basis_state",)),
    "model.eval_state": ("fhpt.model", ("eval_state",)),
    "model.overlap": ("fhpt.model", ("overlap",)),
    "model.residual_ode": ("fhpt.model", ("residual_ode",)),
    "algebra.ladder": ("fhpt.algebra", ("apply_raising", "apply_lowering")),
    "algebra.commutator": ("fhpt.algebra", ("commutator_residual",)),
    "coherent.build": ("fhpt.coherent", ("build_coherent_state",)),
    "coherent.expectation": ("fhpt.coherent", ("general_expectation",)),
    "coherent.resolution": ("fhpt.coherent", ("resolution_of_identity_check",)),
    "checks.run_checks": ("fhpt.checks", ("run_checks",)),
    "cli.main": ("fhpt.cli", ("main",)),
}
NAMES = tuple(SPANS)
_ID = {name: i for i, name in enumerate(NAMES)}

# input classes of bessel_k, matching its branches: x > 2; x <= 2 with an
# integer order, an order within 1e-4 of an integer, or any other order
K_CLASSES = ("x_gt_2", "int_order", "near_int", "generic")


def bessel_k_class(nu: float, x: float) -> int:
    nu = abs(nu)
    if x > 2.0:
        return 0
    m = round(nu)
    if nu == m:
        return 1
    return 2 if abs(nu - m) < 1e-4 else 3


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("i")
        self.request = array("i")
        self.aux = array("q")  # bessel_k class, coherent terms, or matrix-element callbacks
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_request = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every named function; raises if one is missing."""
        modules = {n: m for n, m in sys.modules.items() if n == "fhpt" or n.startswith("fhpt.")}
        originals = {}
        for span, (home, funcs) in SPANS.items():
            mod = modules.get(home)
            for f in funcs:
                fn = getattr(mod, f, None) if mod is not None else None
                if not callable(fn):
                    raise RuntimeError(f"span {span}: {home}.{f} does not exist")
                originals[id(fn)] = (fn, self._wrap(fn, _ID[span], span))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, fn, sid: int, span: str):
        name, parent, request, aux, start, end = (
            self.name, self.parent, self.request, self.aux, self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def enter(tag: int) -> int:
            idx = len(end)
            name.append(sid)
            parent.append(stack[-1])
            request.append(tracer.current_request)
            aux.append(tag)
            end.append(0)
            start.append(0)
            stack.append(idx)
            return idx

        if span == "special.bessel_k":
            def wrapper(nu, x, *args, **kwargs):
                idx = enter(bessel_k_class(nu, x))
                start[idx] = clock()
                try:
                    return fn(nu, x, *args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
        elif span == "coherent.build":
            def wrapper(*args, **kwargs):
                idx = enter(0)
                start[idx] = clock()
                try:
                    cs = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                aux[idx] = len(cs.coeffs)
                return cs
        elif span == "coherent.expectation":
            def wrapper(cs, element, *args, **kwargs):
                calls = [0]

                def counted(i, j):
                    calls[0] += 1
                    return element(i, j)

                idx = enter(0)
                start[idx] = clock()
                try:
                    return fn(cs, counted, *args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                    aux[idx] = calls[0]
        else:
            def wrapper(*args, **kwargs):
                idx = enter(0)
                start[idx] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
        return functools.wraps(fn)(wrapper)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_metrics(a: dict[str, np.ndarray], requests: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-request layer metrics from span columns, plus the entry count of every span name."""
    name, parent, aux = a["name"], a["parent"].astype(np.int64), a["aux"]
    dur = (a["end"] - a["start"]).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    entries = {n: int(np.count_nonzero(name == i)) for n, i in _ID.items()}

    def sel(span: str) -> np.ndarray:
        return name == _ID[span]

    def self_ms(*spans: str) -> float:
        return float(sum(self_ns[sel(s)].sum() for s in spans)) / 1e6 / requests

    # which spans run under a k_integral span (any depth)
    under_k = np.zeros(len(name), dtype=bool)
    up = parent.copy()
    k_id = _ID["quadrature.k_integral"]
    while True:
        live = up >= 0
        if not live.any():
            break
        under_k[live] |= name[up[live]] == k_id
        up[live] = parent[up[live]]

    m: dict[str, float] = {}
    k = sel("special.bessel_k")
    m["special.bessel_k.evals"] = entries["special.bessel_k"] / requests
    m["special.bessel_k.self_ms"] = self_ms("special.bessel_k")
    for c, cname in enumerate(K_CLASSES):
        hit = k & (aux == c)
        n = int(np.count_nonzero(hit))
        m[f"special.bessel_k.{cname}.us_per_eval"] = float(dur[hit].sum()) / 1e3 / n if n else 0.0
        entries[f"special.bessel_k.{cname}"] = n
    m["special.bessel_i.evals"] = entries["special.bessel_i"] / requests
    m["special.bessel_i.self_ms"] = self_ms("special.bessel_i")
    m["special.gegenbauer.self_ms"] = self_ms("special.gegenbauer")
    m["quadrature.gauss_legendre.calls"] = entries["quadrature.gauss_legendre"] / requests
    m["quadrature.gauss_legendre.self_ms"] = self_ms("quadrature.gauss_legendre")
    kcalls = entries["quadrature.k_integral"]
    m["quadrature.k_integral.calls"] = kcalls / requests
    m["quadrature.k_integral.self_ms"] = self_ms("quadrature.k_integral")
    m["quadrature.k_integral.bessel_k_evals_per_call"] = (
        int(np.count_nonzero(k & under_k)) / kcalls if kcalls else 0.0)
    m["model.basis.calls"] = entries["model.basis"] / requests
    m["model.basis.self_ms"] = self_ms("model.basis")
    m["model.eval_state.self_ms"] = self_ms("model.eval_state")
    m["model.overlap.calls"] = entries["model.overlap"] / requests
    m["model.overlap.self_ms"] = self_ms("model.overlap")
    m["model.residual_ode.self_ms"] = self_ms("model.residual_ode")
    m["algebra.ladder.self_ms"] = self_ms("algebra.ladder")
    m["algebra.commutator.self_ms"] = self_ms("algebra.commutator")
    m["coherent.build.self_ms"] = self_ms("coherent.build")
    m["coherent.build.terms"] = float(aux[sel("coherent.build")].sum()) / requests
    m["coherent.expectation.self_ms"] = self_ms("coherent.expectation")
    m["coherent.expectation.elements"] = float(aux[sel("coherent.expectation")].sum()) / requests
    m["coherent.resolution.self_ms"] = self_ms("coherent.resolution")
    m["checks.run_checks.self_ms"] = self_ms("checks.run_checks")
    m["cli.main.self_ms"] = self_ms("cli.main")
    return m, entries
