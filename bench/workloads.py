"""The benchmark's workloads: what one cycle of each runs and how it is certified.

A cycle is a fixed list of ops made from the seed.  Cycles of one run repeat
the same ops, so their verdicts must repeat byte for byte.  Every op calls the
library through its module attributes, so a tracer installed on those
attributes sees the calls.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from truncops import classify, harness, modelspace, operators, quadrature
from truncops.blaschke import ExtendedScalar
from truncops.errors import TruncOpsError
from truncops.ratfun import RationalSymbol

SESSION_DEGREES = (2, 4, 8, 16, 32)
SESSION_KINDS = ("tto", "tho", "sedlock")


def uncaught(exc: Exception) -> str:
    """The error and the library line that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"uncaught {type(exc).__name__}: {exc} "
            f"at {Path(frame.filename).name}:{frame.lineno}")


@dataclass
class Cycle:
    wall: float                       # seconds the whole cycle took
    samples: list                     # (label, seconds, passed, start) per op, in order
    verdicts: bytes                   # what every repeat of the cycle must reproduce exactly
    quad: dict                        # quadrature.STATS figures for the cycle
    failures: list = field(default_factory=list)   # replayable inputs of failed ops

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.wall


class Suite:
    """Cold-cache `harness.run_suite` passes, as `truncops verify-suite` runs them.

    One op is one check trial; its latency is the `harness.run_trial` call.
    """

    def __init__(self, configs):
        self.configs = configs
        self.generate()

    def generate(self):
        """Generate every trial's instance once, as `harness.run_suite` does, so
        set-up covers input generation.  `run_suite` generates them again inside
        each pass, as a CLI run does."""
        for cfg in self.configs:
            for cid, check in harness.CHECKS.items():
                for i in range(cfg.trials):
                    cons = dict(check.constraints, operation=cid)
                    harness.generate_instance(harness._trial_seed(cfg.seed, cid, i),
                                              cfg.degree_range, cfg.symbol_degree_range, cons)

    def run_cycle(self, tracer=None, tick=None) -> Cycle:
        """One pass; `tick()`, when given, runs untimed before each op."""
        samples = []
        inner = harness.run_trial

        def timed(check_id, problem):
            if tracer is not None:
                tracer.op = len(samples) + 1
            if tick is not None:
                tick()
            t0 = time.perf_counter()
            try:
                result = inner(check_id, problem)
            except Exception as exc:
                # run_trial lets errors other than the library's own escape,
                # which would abort the pass: fail this trial instead, so the
                # report lists it with its replayable problem
                result = harness.TrialResult(False, float("inf"), {}, error=uncaught(exc))
            samples.append((check_id, time.perf_counter() - t0, bool(result.passed), t0))
            if tracer is not None:
                tracer.op = 0
            return result

        harness.run_trial = timed
        try:
            t0 = time.perf_counter()
            reports = [harness.run_suite(cfg) for cfg in self.configs]
            wall = time.perf_counter() - t0
        finally:
            harness.run_trial = inner
        failures = [
            {"check": c["id"], "degree_range": list(cfg.degree_range), "suite_seed": cfg.seed,
             "trials": cfg.trials, "failures": c["failures"], "counterexamples": c["counterexamples"]}
            for cfg, rep in zip(self.configs, reports) for c in rep.checks if c["failures"]
        ]
        quad = {"pairings": sum(r.quadrature_stats["pairings"] for r in reports),
                "max_nodes": max(r.quadrature_stats["max_nodes"] for r in reports)}
        return Cycle(wall, samples, b"".join(r.json_bytes() for r in reports), quad, failures)


@dataclass
class SessionOp:
    kind: str
    degree: int
    symbol: dict | None = None        # Laurent symbol, serialized
    alpha: complex = 0j               # class parameter of a Sedlock op
    phi: list | None = None           # K_u coordinates of a Sedlock op's phi
    c: complex = 0j

    def replay_inputs(self, u, v) -> dict:
        out = {"kind": self.kind, "degree": self.degree, "u": u.to_json()}
        if self.kind == "sedlock":
            out.update(alpha=[self.alpha.real, self.alpha.imag], c=[self.c.real, self.c.imag],
                       phi=[[z.real, z.imag] for z in self.phi])
        else:
            out.update(v=v.to_json(), symbol=self.symbol)
        return out


class Session:
    """One warm library session: a fixed generator pair per degree, many symbols.

    Each op is one build plus its classification, certified by the library:
    `tto_matrix` then `is_tto`, `tho_matrix` then `is_tho`, and `sedlock_op`
    then `sedlock_class`, which must recover the class parameter it was built
    with.  Caches (`tm_basis`, `shift`, the Hankel symbol stack) stay warm
    across ops and cycles.
    """

    def __init__(self, seed: int, per_kind: int):
        rng = np.random.default_rng(seed)
        self.pairs = {}
        for d in SESSION_DEGREES:
            spec = harness.generate_instance(int(rng.integers(2**31)), (d, d), (1, 3),
                                             {"spaces": 2})
            self.pairs[d] = (spec.inner_u(), spec.inner_v())
        self.ops = []
        for _ in range(per_kind):
            for d in SESSION_DEGREES:
                for kind in SESSION_KINDS:
                    if kind == "sedlock":
                        self.ops.append(SessionOp(
                            kind, d,
                            alpha=complex(0.9 * np.sqrt(rng.uniform())
                                          * np.exp(2j * np.pi * rng.uniform())),
                            phi=list(rng.standard_normal(d) + 1j * rng.standard_normal(d)),
                            c=complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
                    else:
                        sym = harness.random_laurent(rng, int(rng.integers(1, 4)))
                        self.ops.append(SessionOp(kind, d, symbol=sym.to_json()))

    def _certified(self, op: SessionOp) -> bool:
        u, v = self.pairs[op.degree]
        if op.kind == "tto":
            A = operators.tto_matrix(u, v, RationalSymbol.from_json(op.symbol))
            return classify.is_tto(A).is_member
        if op.kind == "tho":
            B = operators.tho_matrix(u, v, RationalSymbol.from_json(op.symbol))
            return classify.is_tho(B).is_member
        alpha = ExtendedScalar.finite(op.alpha)
        phi = modelspace.tm_basis(u).element(op.phi)
        rep = classify.sedlock_class(operators.sedlock_op(u, alpha, phi, op.c))
        return rep.membership == "finite" and rep.alpha.isclose(alpha, classify.CLASS_TOL)

    def run_cycle(self, tracer=None, tick=None) -> Cycle:
        """One pass; `tick()`, when given, runs untimed before each op."""
        samples, failures = [], []
        quadrature.STATS.reset()
        start = time.perf_counter()
        for i, op in enumerate(self.ops, 1):
            if tracer is not None:
                tracer.op = i
            error = None
            if tick is not None:
                tick()
            t0 = time.perf_counter()
            try:
                passed = bool(self._certified(op))
            except TruncOpsError as exc:
                passed, error = False, f"{type(exc).__name__}: {exc}"
            except Exception as exc:
                passed, error = False, uncaught(exc)
            samples.append((f"{op.kind}-{op.degree}", time.perf_counter() - t0, passed, t0))
            if not passed:
                failures.append(dict(op.replay_inputs(*self.pairs[op.degree]), error=error))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.op = 0
        verdicts = bytes(int(s[2]) for s in samples)
        return Cycle(wall, samples, verdicts, quadrature.STATS.snapshot(), failures)


def make(name: str, seed: int, smoke: bool = False):
    """Generate the workload's inputs from the seed."""
    if name == "suite-low":
        # the verify-suite defaults: degrees 2-4, symbol degrees 1-3, 12 trials
        return Suite([harness.SuiteConfig(seed=seed, trials=1 if smoke else 12)])
    if name == "suite-high":
        # degrees 16-32 in three bands, so every check runs low, middle and
        # high in each cycle whatever the seed draws.  Trial seeds ignore the
        # degree range, so each band gets its own suite seed.
        bands = [(16, 18), (23, 25), (30, 32)][:1 if smoke else 3]
        return Suite([harness.SuiteConfig(seed=3 * seed + k, trials=1, degree_range=b)
                      for k, b in enumerate(bands)])
    if name == "session-reuse":
        return Session(seed, per_kind=1 if smoke else 24)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("suite-low", "suite-high", "session-reuse")
