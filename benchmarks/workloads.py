"""The benchmark's workloads: seeded inputs, one operation, its correctness gate.

Each workload is a closed loop with one client: operation `i` of a run is
built only from ``(seed, i)``, runs to completion, and is re-checked before
operation ``i + 1`` starts.  Library calls go through the ``wc.`` namespace
at call time so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

import walshcube as wc


class GateError(AssertionError):
    """An operation's output failed its correctness gate."""


def op_seed(seed: int, index: int) -> int:
    """A 32-bit library seed for operation `index` of the run seeded `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass(frozen=True)
class Search:
    """`maximize_ratio` at a fixed budget, then `reevaluate_certificate`."""

    name: str
    functional: str
    n: int
    m: int
    p: float
    q: float
    restarts: int
    iterations: int
    probes: int
    trace_ops: int

    def prepare(self, seed: int, index: int) -> wc.SearchConfig:
        return wc.SearchConfig(
            functional=self.functional,
            n=self.n,
            m=self.m,
            p=self.p,
            q=self.q,
            restarts=self.restarts,
            iterations=self.iterations,
            probes=self.probes,
            seed=op_seed(seed, index),
        )

    def operate(self, config: wc.SearchConfig) -> wc.RatioCertificate:
        return wc.maximize_ratio(config)

    def check(self, config: wc.SearchConfig, cert: wc.RatioCertificate) -> tuple[float, str]:
        """Re-check the certificate; returns (certified ratio, certificate digest)."""
        _require(cert.config == config, "certificate does not carry its search config")
        report = wc.reevaluate_certificate(cert)
        _require(not report.degenerate, "re-checked certificate is degenerate")
        _require(
            math.isfinite(cert.ratio) and cert.ratio > 0.0,
            f"certified ratio {cert.ratio} is not a positive number",
        )
        _require(
            abs(report.ratio - cert.ratio) <= 1e-9 * cert.ratio,
            f"re-checked ratio {report.ratio} differs from certified {cert.ratio}",
        )
        return cert.ratio, cert.digest

    def warm_up(self, seed: int) -> None:
        config = replace(self.prepare(seed, 0), restarts=1, iterations=1, probes=2)
        self.check(config, self.operate(config))


@dataclass(frozen=True)
class DeskEval:
    """One pass of few, large library calls on fresh seeded inputs."""

    name: str
    walsh_n: int
    walsh_m: int
    martingale_n: int
    martingale_m: int
    exact_n: int
    mc_n: int
    mc_samples: int
    umd_n: int
    verify_n: int
    verify_rounds: int
    trace_ops: int

    def prepare(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        return {
            "walsh": rng.standard_normal((1 << self.walsh_n, self.walsh_m)),
            "martingale": rng.standard_normal((1 << self.martingale_n, self.martingale_m)),
            "exact": rng.standard_normal((1 << self.exact_n, 2)),
            "mc": rng.standard_normal((1 << self.mc_n, 2)),
            "umd": rng.standard_normal((1 << self.umd_n, 2)),
            "seed": op_seed(seed, index),
        }

    def operate(self, inputs: dict) -> dict:
        max_norm = wc.NormSpace(m=2, q=math.inf)
        one_norm = wc.NormSpace(m=2, q=1.0)
        exact = wc.RademacherAveragePlan(mode="exact")
        sampled = wc.RademacherAveragePlan(
            mode="monte-carlo", samples=self.mc_samples, seed=inputs["seed"]
        )
        spectrum = wc.walsh_forward(wc.HypercubeFunction.from_values(inputs["walsh"]))
        umd_martingale = wc.make_dyadic_martingale(wc.HypercubeFunction.from_values(inputs["umd"]))
        return {
            "spectrum": spectrum,
            "round_trip": wc.walsh_inverse(spectrum),
            "martingale": wc.make_dyadic_martingale(
                wc.HypercubeFunction.from_values(inputs["martingale"])
            ),
            "pisier_exact": wc.pisier_report(
                wc.HypercubeFunction.from_values(inputs["exact"]), 2.0, max_norm, exact
            ),
            "pisier_mc": wc.pisier_report(
                wc.HypercubeFunction.from_values(inputs["mc"]), 2.0, max_norm, sampled
            ),
            "umd": wc.umd_ratio(umd_martingale, 2.0, one_norm),
            "umd_plus": wc.umd_plus_ratio(umd_martingale, 2.0, one_norm, exact),
            "verify": wc.run_verification_suite(
                n=self.verify_n, m=2, seed=inputs["seed"], rounds=self.verify_rounds
            ),
        }

    def check(self, inputs: dict, out: dict) -> tuple[float, str]:
        """Gate the pass; returns (mean of its four ratios, digest of its results)."""
        table = inputs["walsh"]
        round_trip = float(np.max(np.abs(out["round_trip"].values - table)) / np.max(np.abs(table)))
        _require(round_trip <= 1e-12, f"Walsh round trip relative error {round_trip:.3e} > 1e-12")

        piece = wc.HypercubeFunction.from_values(table[: 1 << 10])
        naive_gap = _relative_gap(
            wc.walsh_forward(piece).coefficients, wc.walsh_forward_naive(piece).coefficients
        )
        _require(naive_gap <= 1e-12, f"fast vs naive transform gap {naive_gap:.3e} > 1e-12 at n=10")

        values = out["martingale"].values
        final_gap = _relative_gap(values[-1], inputs["martingale"])
        _require(final_gap <= 1e-12, f"dyadic martingale does not end at f ({final_gap:.3e})")

        failed = [check.name for check in out["verify"] if not check.passed]
        _require(not failed, f"verify checks failed: {failed}")

        ratios = []
        for key in ("pisier_exact", "pisier_mc"):
            report = out[key]
            _require(
                not report.degenerate and math.isfinite(report.ratio) and report.ratio > 0.0,
                f"{key} report is degenerate or not finite: {report.to_json_dict()}",
            )
            ratios.append(report.ratio)
        _require(
            math.isfinite(out["umd"]) and out["umd"] >= 1.0 - 1e-12,
            f"umd ratio {out['umd']} is below the identity transform's 1",
        )
        _require(
            math.isfinite(out["umd_plus"]) and out["umd_plus"] > 0.0,
            f"umd-plus ratio {out['umd_plus']} is not a positive number",
        )
        ratios += [out["umd"], out["umd_plus"]]

        digest = hashlib.sha256(out["spectrum"].coefficients.tobytes())
        digest.update(repr([float(r) for r in ratios]).encode())
        digest.update(repr([c.deviation for c in out["verify"]]).encode())
        return sum(ratios) / len(ratios), digest.hexdigest()

    def warm_up(self, seed: int) -> None:
        small = replace(
            self,
            walsh_n=10,
            martingale_n=6,
            exact_n=4,
            mc_n=6,
            mc_samples=16,
            umd_n=4,
            verify_n=4,
            verify_rounds=1,
        )
        inputs = small.prepare(seed, 0)
        small.check(inputs, small.operate(inputs))


WORKLOADS = {
    w.name: w
    for w in (
        Search(
            name="search-pisier",
            functional="pisier",
            n=4,
            m=2,
            p=2.0,
            q=math.inf,
            restarts=2,
            iterations=15,
            probes=20,
            trace_ops=4,
        ),
        Search(
            name="search-umd",
            functional="umd",
            n=4,
            m=2,
            p=2.0,
            q=1.0,
            restarts=8,
            iterations=2,
            probes=20,
            trace_ops=2,
        ),
        DeskEval(
            name="desk-eval",
            walsh_n=18,
            walsh_m=4,
            martingale_n=15,
            martingale_m=4,
            exact_n=10,
            mc_n=12,
            mc_samples=256,
            umd_n=10,
            verify_n=8,
            verify_rounds=4,
            trace_ops=3,
        ),
    )
}
