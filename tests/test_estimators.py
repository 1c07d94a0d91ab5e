"""Extremal search: probes, ascent, certificates, re-evaluation, scans."""

import csv
import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from _naive import central_difference_gradient, maximize_ratio_sequential
from walshcube.estimators import (
    FUNCTIONAL_NAMES,
    CertificateMismatchError,
    RatioCertificate,
    SearchConfig,
    SearchObjective,
    _certificate_digest,
    functional_report,
    load_certificate,
    maximize_ratio,
    reevaluate_certificate,
    save_certificate,
    scan_dimension,
)
from walshcube.hypercube import HypercubeFunction
from walshcube.inequalities import pisier_envelope
from walshcube.martingales import FiniteFiltration, MartingaleSequence
from walshcube.norms import FunctionFamily, NormSpace

FAST = dict(restarts=2, iterations=120, probes=50)


class TestSearchConfig:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(functional="pisier", n=2, m=1, p=2.0, q=2.0, restarts=0)

    @pytest.mark.parametrize("n", [-1, 0, 21, 30])
    def test_dimension_range(self, n):
        with pytest.raises(ValueError, match=r"dimension n must be in \[1, 20\]"):
            SearchConfig(functional="pisier", n=n, m=1, p=2.0, q=2.0)

    def test_p_range(self):
        with pytest.raises(ValueError, match=r"pisier requires p in \[1, inf\), got inf"):
            SearchConfig(functional="pisier", n=2, m=1, p=math.inf, q=2.0)
        with pytest.raises(ValueError, match=r"umd requires p in \(1, inf\), got 1.0"):
            SearchConfig(functional="umd", n=2, m=1, p=1.0, q=2.0)
        # pisier's deviation functional is defined at p = 1.
        cert = maximize_ratio(SearchConfig(functional="pisier", n=3, m=2, p=1.0, q=2.0, **FAST))
        assert reevaluate_certificate(cert).ratio == pytest.approx(cert.ratio, rel=1e-9)

    def test_unknown_functional(self):
        cfg = SearchConfig(functional="nope", n=2, m=1, p=2.0, q=2.0, **FAST)
        with pytest.raises(ValueError, match="unknown functional"):
            maximize_ratio(cfg)

    def test_type_exponent_gate(self):
        with pytest.raises(ValueError, match="requires p in"):
            SearchConfig(functional="rademacher-type", n=2, m=2, p=2.5, q=1.0, **FAST)

    @pytest.mark.parametrize("q", ["inf", "2", None, True, [2.0]])
    def test_q_of_another_type_is_refused_naming_it(self, q):
        with pytest.raises(TypeError, match="config q must be a real number"):
            SearchConfig(functional="pisier", n=2, m=1, p=2.0, q=q, **FAST)

    @pytest.mark.parametrize("q", [0.5, 0, -math.inf, math.nan])
    def test_q_below_one_is_refused_naming_it(self, q):
        with pytest.raises(ValueError, match=r"norm index q must satisfy q >= 1, got "):
            SearchConfig(functional="pisier", n=2, m=1, p=2.0, q=q, **FAST)

    @pytest.mark.parametrize(
        "plan, message",
        [({"plan_samples": 0}, "sample count must be >= 1"),
         ({"plan_mode": "bogus"}, "unknown plan mode 'bogus'")],
        ids=["samples", "mode"],
    )
    def test_a_plan_outside_its_rules_is_refused_when_built(self, plan, message):
        with pytest.raises(ValueError) as error:
            SearchConfig(functional="pisier", n=2, m=1, p=2.0, q=2.0, **plan)
        assert str(error.value) == message

    @pytest.mark.parametrize("q", [1, 1.0, 2.5, math.inf])
    def test_q_of_at_least_one_is_accepted(self, q):
        assert SearchConfig(functional="pisier", n=2, m=1, p=2.0, q=q).space().q == q

    def test_json_round_trip_with_infinite_q(self):
        cfg = SearchConfig(functional="pisier", n=3, m=2, p=2.0, q=math.inf)
        back = SearchConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg


class TestMaximizeRatioHilbert:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pisier_hilbert_converges_to_one(self, n):
        cfg = SearchConfig(
            functional="pisier", n=n, m=1, p=2.0, q=2.0, seed=7, restarts=4,
            iterations=200, probes=80,
        )
        cert = maximize_ratio(cfg)
        assert cert.ratio == pytest.approx(1.0, abs=1e-6)

    def test_stein_hilbert_stays_below_one(self):
        cfg = SearchConfig(
            functional="stein", n=3, m=2, p=2.0, q=2.0, seed=1, **FAST
        )
        cert = maximize_ratio(cfg)
        assert cert.ratio <= 1.0 + 1e-6

    def test_n1_is_immediately_exact(self):
        cfg = SearchConfig(functional="pisier", n=1, m=3, p=2.0, q=2.0, seed=2, **FAST)
        cert = maximize_ratio(cfg)
        assert cert.ratio == pytest.approx(1.0, abs=1e-9)


class TestMaximizeRatioWitnesses:
    def test_type_search_approaches_sqrt2_on_l1(self):
        cfg = SearchConfig(
            functional="rademacher-type", n=2, m=2, p=2.0, q=1.0, seed=0,
            restarts=6, iterations=200, probes=300,
        )
        cert = maximize_ratio(cfg)
        assert 1.3 <= cert.ratio <= math.sqrt(2.0) + 1e-9

    def test_search_beats_probes(self):
        cfg = SearchConfig(
            functional="pisier", n=3, m=4, p=2.0, q=math.inf, seed=5, restarts=2,
            iterations=60, probes=40,
        )
        probe_only = SearchConfig(
            functional="pisier", n=3, m=4, p=2.0, q=math.inf, seed=5, restarts=1,
            iterations=1, probes=40,
        )
        assert maximize_ratio(cfg).ratio >= maximize_ratio(probe_only).ratio - 1e-12

    def test_envelope_respected_by_search_output(self):
        for q in (1.0, 2.0, math.inf):
            cfg = SearchConfig(functional="pisier", n=4, m=2, p=1.5, q=q, seed=3, **FAST)
            cert = maximize_ratio(cfg)
            assert cert.ratio <= pisier_envelope(4)

    def test_all_registered_functionals_run(self):
        for name in FUNCTIONAL_NAMES:
            p = 2.0
            cfg = SearchConfig(
                functional=name, n=2, m=2, p=p, q=1.5, seed=9, restarts=1,
                iterations=10, probes=10,
            )
            cert = maximize_ratio(cfg)
            assert math.isfinite(cert.ratio)
            assert cert.functional == name


class TestCertificates:
    def make_cert(self, seed=13):
        cfg = SearchConfig(
            functional="umd-plus", n=3, m=2, p=2.5, q=4.0, seed=seed, **FAST
        )
        return maximize_ratio(cfg)

    def test_determinism_byte_for_byte(self):
        a = self.make_cert()
        b = self.make_cert()
        assert a.to_json() == b.to_json()

    def test_different_seed_changes_result(self):
        a = self.make_cert(seed=13)
        b = self.make_cert(seed=14)
        assert a.to_json() != b.to_json()

    def test_reevaluation_matches(self):
        cert = self.make_cert()
        report = reevaluate_certificate(cert)
        assert report.ratio == pytest.approx(cert.ratio, rel=1e-9)

    def test_load_names_a_missing_or_unknown_key(self, tmp_path):
        data = json.loads(self.make_cert().to_json())
        path = tmp_path / "cert.json"
        broken = [
            ({k: v for k, v in data.items() if k != "digest"}, "lacks the key 'digest'"),
            ({**data, "config": {**data["config"], "stride": 2}}, "unknown key 'stride'"),
            (
                {**data, "config": {k: v for k, v in data["config"].items() if k != "q"}},
                "config lacks the key 'q'",
            ),
            ({**data, "config": 5}, "config must be a JSON object"),
            ([data], "certificate must be a JSON object"),
        ]
        for payload, message in broken:
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=message) as error:
                load_certificate(str(path))
            assert "\n" not in str(error.value)

    def test_file_round_trip(self, tmp_path):
        cert = self.make_cert()
        path = tmp_path / "cert.json"
        save_certificate(cert, str(path))
        back = load_certificate(str(path))
        assert back.to_json() == cert.to_json()
        report = reevaluate_certificate(back)
        assert report.ratio == pytest.approx(cert.ratio, rel=1e-9)

    def test_tampered_witness_is_rejected(self):
        cert = self.make_cert()
        tampered_witness = cert.witness_array()
        tampered_witness[0, 0] += 1e-3
        tampered = RatioCertificate(
            functional=cert.functional,
            witness_kind=cert.witness_kind,
            witness=tuple(tuple(row) for row in tampered_witness.tolist()),
            lhs=cert.lhs,
            rhs=cert.rhs,
            ratio=cert.ratio,
            config=cert.config,
            discarded_restarts=cert.discarded_restarts,
            digest=cert.digest,
        )
        with pytest.raises(CertificateMismatchError, match="digest"):
            reevaluate_certificate(tampered)

    def test_tampered_values_are_rejected(self):
        cert = self.make_cert()
        bad = RatioCertificate(
            functional=cert.functional,
            witness_kind=cert.witness_kind,
            witness=cert.witness,
            lhs=cert.lhs * (1 + 1e-3),
            rhs=cert.rhs,
            ratio=cert.ratio,
            config=cert.config,
            discarded_restarts=cert.discarded_restarts,
            digest=cert.digest,
        )
        with pytest.raises(CertificateMismatchError, match="reproduce"):
            reevaluate_certificate(bad)

    def test_edited_ratio_is_rejected(self):
        # The digest covers the witness and the config, not the stored values.
        cert = maximize_ratio(SearchConfig(functional="pisier", n=3, m=2, p=2.5, q=4.0, **FAST))
        with pytest.raises(CertificateMismatchError, match="stored ratio"):
            reevaluate_certificate(replace(cert, ratio=1e9))

    def test_non_finite_claims_are_rejected(self):
        cert = self.make_cert()
        with pytest.raises(CertificateMismatchError, match="do not reproduce"):
            reevaluate_certificate(replace(cert, lhs=math.nan, rhs=math.nan, ratio=math.nan))
        with pytest.raises(CertificateMismatchError, match="stored ratio"):
            reevaluate_certificate(replace(cert, ratio=math.nan))

    def test_non_finite_vector_witness_is_an_input_error(self):
        cfg = SearchConfig(
            functional="rademacher-type", n=3, m=2, p=1.5, q=1.0, restarts=1, iterations=2,
            probes=3,
        )
        cert = maximize_ratio(cfg)
        witness = cert.witness_array()
        witness[0, 0] = math.nan
        frozen = tuple(tuple(row) for row in witness.tolist())
        digest = _certificate_digest(cert.functional, cert.witness_kind, frozen, cfg)
        with pytest.raises(ValueError, match="non-finite"):
            reevaluate_certificate(replace(cert, witness=frozen, digest=digest))

    def test_wrongly_typed_config_fields_are_input_errors(self, tmp_path):
        data = json.loads(self.make_cert().to_json())
        path = tmp_path / "cert.json"
        for key, value in (("n", "3"), ("m", "2"), ("functional", ["x"])):
            path.write_text(json.dumps({**data, "config": {**data["config"], key: value}}))
            with pytest.raises(ValueError, match="malformed certificate") as error:
                load_certificate(str(path))
            assert "\n" not in str(error.value), key

    def test_q_other_than_a_number_or_inf_is_an_input_error(self, tmp_path):
        data = json.loads(self.make_cert().to_json())
        path = tmp_path / "cert.json"
        for value in ("2", "infinity", None, [2.0], True):
            path.write_text(json.dumps({**data, "config": {**data["config"], "q": value}}))
            with pytest.raises(ValueError, match="q must be a number or 'inf'") as error:
                load_certificate(str(path))
            assert "\n" not in str(error.value), value

    def test_rademacher_type_recheck_reports_exact_enumeration(self):
        cfg = SearchConfig(
            functional="rademacher-type", n=11, m=1, p=2.0, q=1.0, restarts=1, iterations=1,
            probes=2, plan_samples=512,
        )
        assert cfg.plan().mode == "monte-carlo"
        assert reevaluate_certificate(maximize_ratio(cfg)).mode == "exact"

    def test_scale_invariance_of_stored_witness(self):
        cert = self.make_cert()
        objective = SearchObjective(cert.config)
        flat = cert.witness_array().reshape(-1)
        scaled, plain = objective(np.stack([flat * 37.0, flat]))[0]
        assert scaled == pytest.approx(plain, rel=1e-12)


def _gradient_gap(name, n, q, plan_mode="exact"):
    """Largest gap between the analytic and the central-difference gradient of log ratio."""
    p = 1.5 if name in ("rademacher-type", "martingale-type") else 2.5
    objective = SearchObjective(
        SearchConfig(
            functional=name, n=n, m=2, p=p, q=q, seed=5, plan_mode=plan_mode, plan_samples=37
        )
    )
    x = np.random.default_rng([n, 17]).standard_normal(objective.dimension)

    def log_ratio(y):
        lhs, rhs = objective.sides(y)
        return math.log(lhs / rhs)

    numeric = central_difference_gradient(log_ratio, x, h=1e-6)
    return float(np.max(np.abs(_gradient(objective, x) - numeric))) / max(
        1.0, float(np.max(np.abs(numeric)))
    )


def _gradient(objective, x):
    """The gradient of log ratio at one flat point, as a batch of one."""
    _, rows, usable = objective.gradient(x[None])
    assert usable[0]
    return rows[0]


class TestAnalyticGradients:
    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_targets_match_central_differences(self, name, n):
        for q in (1.5, 2.0, 3.0):
            assert _gradient_gap(name, n, q) <= 1e-6, q

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_kinked_targets_match_central_differences(self, name, n):
        # Seeded points with no ties in the active coordinate or sign pattern.
        for q in (1.0, math.inf):
            assert _gradient_gap(name, n, q) <= 1e-5, q

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_monte_carlo_plan_uses_the_same_masks(self, name):
        assert _gradient_gap(name, 3, 3.0, plan_mode="monte-carlo") <= 1e-6

    def test_gradient_is_orthogonal_to_the_scale_direction(self):
        # The ratio is homogeneous of degree zero, so <grad log ratio, x> = 0.
        objective = SearchObjective(SearchConfig(functional="corollary2", n=3, m=2, p=2.5, q=3.0))
        x = np.random.default_rng(3).standard_normal(objective.dimension)
        assert abs(_gradient(objective, x) @ x) <= 1e-10 * np.linalg.norm(x)

    def test_ascent_makes_few_objective_calls(self, monkeypatch):
        import walshcube.estimators as est

        rows = []
        original = est.SearchObjective.raw_sides

        def counting(self, batch, with_gradient=False):
            rows.append(len(batch))
            return original(self, batch, with_gradient)

        monkeypatch.setattr(est.SearchObjective, "raw_sides", counting)
        cfg = SearchConfig(
            functional="pisier", n=4, m=2, p=2.0, q=math.inf, restarts=2, iterations=15,
            probes=20, seed=1,
        )
        maximize_ratio(cfg)
        # Rows evaluated for probes, starts, gradients, line searches and
        # final re-evaluations: a finite-difference gradient alone would need
        # 2 * 32 rows per step.
        assert sum(rows) <= 150

    def test_first_ladders_save_value_calls(self, monkeypatch):
        import walshcube.estimators as est

        calls = []
        original = est.SearchObjective.__call__

        def counting(self, batch):
            calls.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(est.SearchObjective, "__call__", counting)
        cfg = SearchConfig(
            functional="pisier", n=4, m=2, p=2.0, q=math.inf, restarts=2, iterations=15,
            probes=20, seed=1,
        )
        maximize_ratio(cfg)
        # Each round's first ladder holds two rungs per row, and the first
        # gradient batch scores the starts: 20 value calls (probes, ladders,
        # final re-evaluation); a separate value call on the starts gave 21,
        # and one rung 25.
        assert len(calls) <= 20


def _record_constructions(monkeypatch) -> list:
    """The names of the witness objects built from here on, in order."""
    built = []
    for cls in (HypercubeFunction, FunctionFamily, MartingaleSequence, FiniteFiltration):

        def recording(self, original=cls.__post_init__, name=cls.__name__):
            built.append(name)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", recording)
    trusted = MartingaleSequence._trusted.__func__

    def recording_trusted(cls, *args):
        built.append("MartingaleSequence")
        return trusted(cls, *args)

    monkeypatch.setattr(MartingaleSequence, "_trusted", classmethod(recording_trusted))
    return built


def _oracle_config(name, q, **budget):
    p = 1.5 if name.endswith("-type") else 2.5
    budget = {"restarts": 3, "iterations": 10, "probes": 20, **budget}
    return SearchConfig(functional=name, n=3, m=2, p=p, q=q, seed=1, **budget)


class TestBatchedSearch:
    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize("q", [3.0, 1.0, math.inf])
    def test_certificates_equal_the_sequential_oracle(self, name, q):
        cfg = _oracle_config(name, q)
        assert maximize_ratio(cfg).to_json() == maximize_ratio_sequential(cfg).to_json()

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize("rows", [1, 4])
    def test_batched_rows_equal_single_rows(self, name, rows):
        for q in (3.0, math.inf):
            objective = SearchObjective(_oracle_config(name, q))
            batch = np.random.default_rng([rows, 5]).standard_normal((rows, objective.dimension))
            values = [value for value, _ in objective.raw_sides(batch)]
            gradients = [gradient for _, gradient in objective.raw_sides(batch, True)]
            config = objective.config
            build = objective.entry.build(config.n, config.p, objective.space, objective.plan)
            for k, row in enumerate(batch):
                alone = build(row.reshape(objective.shape), True)
                for (value, gradient), values_k, gradients_k in zip(alone, values, gradients):
                    assert value == values_k[k]
                    assert np.array_equal(gradient, gradients_k[k])

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    def test_gradient_ratios_have_the_bits_of_a_value_call(self, name, q):
        # The ascent scores its starts with their first gradient batch.
        for m in (1, 2, 3):
            objective = SearchObjective(replace(_oracle_config(name, q), m=m))
            batch = np.random.default_rng([m, 37]).standard_normal((5, objective.dimension))
            batch[3] = 0.0  # degenerate: nan both ways
            scored, _, usable = objective.gradient(batch)
            valued, _ = objective(batch)
            assert np.array_equal(scored.view(np.uint64), valued.view(np.uint64))
            assert np.isnan(scored[3]) and not usable[3]
            assert not np.isnan(np.delete(scored, 3)).any()

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_sides_have_the_bits_of_batched_rows(self, name):
        # `sides` (the certified value, for certificates and `eval`; pisier's
        # through its library pair) and the search's raw batches run the
        # same kernels, so they agree exactly.
        p = 1.5 if name.endswith("-type") else 2.5
        for q, n, m, mode in itertools.product(
            (1.0, 1.5, 2.0, 3.0, math.inf), (1, 2, 3, 4), (1, 2, 3), ("exact", "monte-carlo")
        ):
            cfg = SearchConfig(
                functional=name, n=n, m=m, p=p, q=q, seed=3, plan_mode=mode, plan_samples=37
            )
            objective = SearchObjective(cfg)
            batch = np.random.default_rng([n, m, 11]).standard_normal((4, objective.dimension))
            four = [value for value, _ in objective.raw_sides(batch)]
            for k, row in enumerate(batch):
                one = [value[0] for value, _ in objective.raw_sides(row[None])]
                assert objective.sides(row) == (four[0][k], four[1][k]) == tuple(one)

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_eval_route_has_the_bits_of_the_certificate_route(self, name):
        # `eval` loads a validated witness (a martingale through
        # `make_dyadic_martingale`); certificates read the raw array.
        p = 1.5 if name.endswith("-type") else 2.5
        for n, m, q in itertools.product((1, 2, 3, 4), (1, 3), (1.0, 2.0, 3.0, math.inf)):
            objective = SearchObjective(SearchConfig(functional=name, n=n, m=m, p=p, q=q))
            flat = np.random.default_rng([n, m, 17]).standard_normal(objective.dimension)
            kind = objective.entry.kind
            witness = kind.load({kind.key: flat.reshape(objective.shape).tolist()})
            report = functional_report(name, witness, p, objective.space, objective.config.plan())
            assert (report.lhs, report.rhs) == objective.sides(flat), (n, m, q)

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_a_witness_outside_the_space_is_refused(self, name):
        # `eval` reads the witness's m; a space of another length is refused
        # before any side is prepared, with the one `NormSpace` message.
        p = 1.5 if name.endswith("-type") else 2.5
        objective = SearchObjective(SearchConfig(functional=name, n=2, m=3, p=p, q=2.0))
        flat = np.random.default_rng(19).standard_normal(objective.dimension)
        kind = objective.entry.kind
        witness = kind.load({kind.key: flat.reshape(objective.shape).tolist()})
        for space in (NormSpace(2, 2.0), NormSpace(4, math.inf)):
            with pytest.raises(ValueError) as refused:
                functional_report(name, witness, p, space, objective.plan)
            assert str(refused.value) == f"vectors of length 3 in ell_q^{space.m}"

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_certified_values_read_the_raw_witness(self, name, monkeypatch):
        # Only pisier's library pair builds an object: one HypercubeFunction
        # per certified value, in the search and in the re-check.
        built = _record_constructions(monkeypatch)
        reevaluate_certificate(maximize_ratio(_oracle_config(name, 3.0, restarts=1, iterations=2)))
        assert built == (["HypercubeFunction"] * 2 if name == "pisier" else [])

    def test_probes_and_restarts_above_the_row_cap(self):
        cfg = replace(_oracle_config("corollary2", 3.0, probes=40, restarts=20, iterations=3), n=4)
        assert cfg.probes > SearchObjective(cfg).batch_rows
        assert cfg.restarts > SearchObjective(cfg).batch_rows
        assert maximize_ratio(cfg).to_json() == maximize_ratio_sequential(cfg).to_json()

    def test_one_row_per_batch_equals_the_sequential_oracle(self):
        cfg = SearchConfig(
            functional="pisier", n=8, m=4, p=2.0, q=math.inf, restarts=2, iterations=5,
            probes=3, seed=1,
        )
        assert SearchObjective(cfg).batch_rows == 1
        assert maximize_ratio(cfg).to_json() == maximize_ratio_sequential(cfg).to_json()

    def test_shallow_ladders_equal_the_sequential_oracle(self, monkeypatch):
        import walshcube.estimators as est

        # Four rows per batch and three restarts: a ladder has one rung while
        # all three climb, and a four-row batch is a deeper ladder.
        cfg = SearchConfig(
            functional="pisier", n=6, m=2, p=2.5, q=math.inf, restarts=3, iterations=40,
            probes=1, seed=0,
        )
        assert SearchObjective(cfg).batch_rows == 4
        sizes = []
        original = est.SearchObjective.__call__

        def recording(self, batch):
            sizes.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(est.SearchObjective, "__call__", recording)
        cert = maximize_ratio(cfg)
        assert max(sizes) == 4 and sizes[2:].count(4) > 0  # after the draws and the starts
        assert cert.to_json() == maximize_ratio_sequential(cfg).to_json()

    def test_nan_past_an_accepted_rung_is_ignored(self, monkeypatch):
        import walshcube.estimators as est

        # A search-umd operation whose ladders evaluate rungs that a halving
        # search never reaches.  Every point the sequential oracle does not
        # evaluate is made non-finite: only rungs past a row's accepted one.
        cfg = SearchConfig(
            functional="umd", n=4, m=2, p=2.0, q=1.0, restarts=8, iterations=2, probes=20,
            seed=3549136632,
        )
        reached = set()
        sides = est.SearchObjective.sides

        def recording(self, flat):
            reached.add(flat.tobytes())
            return sides(self, flat)

        monkeypatch.setattr(est.SearchObjective, "sides", recording)
        oracle = maximize_ratio_sequential(cfg)
        monkeypatch.setattr(est.SearchObjective, "sides", sides)
        poisoned = []
        original = est.SearchObjective.__call__

        def poisoning(self, batch):
            value, finite = original(self, batch)
            unreached = np.array([row.tobytes() not in reached for row in batch])
            value[unreached], finite[unreached] = np.nan, False
            poisoned.append(int(unreached.sum()))
            return value, finite

        monkeypatch.setattr(est.SearchObjective, "__call__", poisoning)
        cert = maximize_ratio(cfg)
        assert sum(poisoned) > 0
        assert cert.discarded_restarts == oracle.discarded_restarts == 0
        assert cert.to_json() == oracle.to_json()

    def test_search_umd_ladders_halve_the_value_calls(self, monkeypatch):
        import walshcube.estimators as est

        # The benchmark's search-umd operations of its seed-1 run: one value
        # call per line-search round made 15.2 calls per certificate, ladders
        # make 7.5.
        calls = []
        original = est.SearchObjective.__call__

        def counting(self, batch):
            calls.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(est.SearchObjective, "__call__", counting)
        operations = 30
        for index in range(operations):
            seed = int(np.random.SeedSequence([1, index]).generate_state(1)[0])
            maximize_ratio(
                SearchConfig(
                    functional="umd", n=4, m=2, p=2.0, q=1.0, restarts=8, iterations=2,
                    probes=20, seed=seed,
                )
            )
        assert len(calls) <= 10 * operations

    def test_one_draw_of_k_rows_is_k_draws_of_one(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(a.standard_normal((5, 7)), [b.standard_normal(7) for _ in range(5)])


class _ScriptedObjective:
    """Stands in for `SearchObjective` in `_ascend`, with a scripted ratio.

    Each start is (1, b, c) with signs b, c, so its root-mean-square scale
    is 1, and every gradient is (1, 0, 0): a trial point at step s is
    (1 + s, b, c).  The signs (b, c) name the row, and `script[row](s)`
    gives its (ratio, finite) at s = p0 / |p1| - 1, which is scale
    invariant like a real ratio.  Every call is logged as (kind, [(row,
    s), ...]).
    """

    def __init__(self, batch_rows, script):
        self.batch_rows = batch_rows
        self.script = script
        self.log = []

    def _evaluate(self, kind, batch):
        rows = [(tuple(np.sign(point[1:])), point[0] / abs(point[1]) - 1.0) for point in batch]
        self.log.append((kind, rows))
        value, finite = zip(*(self.script[row](s) for row, s in rows))
        return np.array(value), np.array(finite)

    def __call__(self, batch):
        return self._evaluate("value", batch)

    def gradient(self, batch):
        ratio, finite = self._evaluate("gradient", batch)
        gradient = np.zeros_like(batch)
        gradient[:, 0] = 1.0
        return ratio, gradient, finite

    def ladder(self, row, iteration=0):
        """The steps at which `row` was evaluated in the line search of one iteration."""
        starts = [k for k, (kind, _) in enumerate(self.log) if kind == "gradient"]
        stop = starts[iteration + 1] if iteration + 1 < len(starts) else len(self.log) - 1
        calls = self.log[starts[iteration] + 1 : stop]
        return [s for kind, rows in calls for key, s in rows if key == row]


ACCEPTS, DISCARDED, NEVER = (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)
SCRIPT = {
    # Worse at steps 0.5 and 0.25, better at 0.125: accepted at rung 2.
    ACCEPTS: lambda s: (2.0 - (s - 0.1) ** 2, True),
    # Non-finite at 0.25, before a better rung at 0.125: discarded.
    DISCARDED: lambda s: (np.nan, False) if s == 0.25 else (3.0 if s == 0.125 else 1.0 - s, True),
    # Worse at every positive step: the ladder runs down to the floor.
    NEVER: lambda s: (1.0 - s, True),
}


class TestLadderOutcomes:
    @pytest.mark.parametrize("batch_rows", [1, 4, 64])
    def test_accept_discard_and_floor(self, batch_rows):
        from walshcube.estimators import _MIN_LINE_STEP, _ascend

        objective = _ScriptedObjective(batch_rows, SCRIPT)
        starts = np.array([[1.0, *row] for row in (ACCEPTS, DISCARDED, NEVER)])
        x, ratio = _ascend(objective, starts, replace(_oracle_config("pisier", 3.0), iterations=2))

        assert objective.ladder(ACCEPTS)[:3] == [0.5, 0.25, 0.125]
        accepted = np.array([1.125, 1.0, 1.0])
        scale = np.sqrt(np.mean(accepted**2))
        assert np.array_equal(x[0], accepted / scale)
        assert ratio[0] == pytest.approx(2.0 - 0.025**2, rel=1e-12)
        # The next ladder starts at twice the accepted step, from the new point.
        assert objective.ladder(ACCEPTS, 1)[0] == pytest.approx(0.125 + 0.25 * scale)

        assert objective.ladder(DISCARDED)[:2] == [0.5, 0.25]
        assert math.isnan(ratio[1])

        # Exactly the 33 halvings of 0.5 at or above the floor, then the row
        # keeps its point and ratio and climbs no more.
        steps = [0.5 * 2.0**-j for j in range(33)]
        assert objective.ladder(NEVER) == steps
        assert steps[-1] >= _MIN_LINE_STEP > steps[-1] / 2
        assert np.array_equal(x[2], starts[2]) and ratio[2] == 1.0
        climbed = [row for kind, rows in objective.log if kind == "gradient" for row, _ in rows]
        assert climbed == [ACCEPTS, DISCARDED, NEVER, ACCEPTS]


    def test_the_first_gradient_batch_scores_the_starts(self):
        from walshcube.estimators import _ascend

        # Degenerate at its start (a nan ratio, though finite), better at any step.
        degenerate = (-1.0, -1.0)
        script = {**SCRIPT, degenerate: lambda s: (np.nan if s == 0.0 else 5.0, True)}
        objective = _ScriptedObjective(4, script)
        starts = np.array([[1.0, *row] for row in (ACCEPTS, degenerate)])
        x, ratio = _ascend(objective, starts, replace(_oracle_config("pisier", 3.0), iterations=2))

        kind, rows = objective.log[0]
        assert kind == "gradient" and [row for row, _ in rows] == [ACCEPTS, degenerate]
        assert objective.ladder(degenerate) == [] and math.isnan(ratio[1])
        assert np.array_equal(x[1], starts[1])
        assert ratio[0] == pytest.approx(2.0 - 0.025**2, rel=1e-12)


class TestScanDimension:
    def test_hilbert_scan_all_ones(self, tmp_path):
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.0, q=2.0, seed=4, restarts=2,
            iterations=150, probes=40,
        )
        path = tmp_path / "scan.csv"
        certs = scan_dimension(cfg, range(1, 5), csv_path=str(path))
        assert [c.config.n for c in certs] == [1, 2, 3, 4]
        for cert in certs:
            assert cert.ratio == pytest.approx(1.0, abs=1e-6)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "ratio", "envelope_2e_log_n"]
        assert len(rows) == 5
        assert float(rows[2][2]) == pytest.approx(pisier_envelope(2))

    def test_m_follows_dimension(self):
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.0, q=math.inf, seed=4, restarts=1,
            iterations=10, probes=10,
        )
        certs = scan_dimension(cfg, [2, 3], m_for_n=lambda n: 2**n)
        assert [c.config.m for c in certs] == [4, 8]

    @pytest.mark.parametrize(
        "n_values, m_for_n, what",
        [
            ([2.9], None, "n"),
            ([True], None, "n"),
            ([2], lambda n: 1.7, "m"),
            ([2], lambda n: True, "m"),
            (["2"], None, "n"),
        ],
        ids=["fractional-n", "boolean-n", "fractional-m", "boolean-m", "string-n"],
    )
    def test_dimensions_are_integers_never_truncated(self, n_values, m_for_n, what):
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.0, q=2.0, restarts=1, iterations=1, probes=1
        )
        with pytest.raises(ValueError, match=f"scan {what} must be an integer"):
            scan_dimension(cfg, n_values, m_for_n=m_for_n)

    def test_numpy_integers_are_dimensions(self):
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.0, q=2.0, restarts=1, iterations=1, probes=1
        )
        certs = scan_dimension(cfg, np.arange(1, 3), m_for_n=lambda n: np.int64(n))
        assert [(c.config.n, c.config.m) for c in certs] == [(1, 1), (2, 2)]
        assert all(type(c.config.n) is int and type(c.config.m) is int for c in certs)


class TestSameSeedPin:
    """Same-seed certificates keep their bytes: per functional, one digest over
    the `to_json()` of 10 searches, (n, m, q) in {(2, 1, 1), (3, 2, inf),
    (4, 2, 3)} x seeds 0-2 with the auto plan, then (3, 1, 2) with a
    300-sample Monte Carlo plan.  A one-ulp change to a side changes it."""

    DIGESTS = {
        "corollary2": "872aa7ffc4979a000bcf5804c910f5cbab4070a507998bbc8852522445ddadad",
        "hn-remark": "72767b2a5f8a183a8cda04414e909044e821e4d0a7c557aaac4e4df59d4cf608",
        "k-convexity": "69a17c802814b89999ff3b8abe3b73b0781895171b22cca40b96294705436c02",
        "martingale-type": "45f72c4e7bd76bef2c23f2c13295d455620b5f30e0a116674710da375dd12c1d",
        "pisier": "bfebf45c5df3f53fe260439feeacdb50396f3f3c5b125942580084d9fb85f1cb",
        "rademacher-type": "55ff3d28fa9078e6e8c233b831cde66a7edd79787882ce41ba85aeebf0b7b2a3",
        "stein": "d2da8769518a2b5865b4a912ed27341f0619e76021b4cf65dc29a431eb27b801",
        "theorem1": "bd8f4c88d5625e6604f544b5fdf3fb29cfd4fbfd373c936dfe441b606bc75fe1",
        "umd": "4a880a14894f0fb3d08d0517878356a8c8f2452311eed8622dbc792a93c64432",
        "umd-minus": "88462f5f9821c07a9b33ce52d5199d7ff3d3f0b16f2d6faf7e563889a3a81166",
        "umd-plus": "eb8e279e88b266f3ac9c1db9f03f62a9488b3ee1f86635f55ecf76e2254d66d1",
    }

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_certificates_keep_their_bytes(self, name):
        p = 1.5 if name.endswith("-type") else 2.5
        budget = dict(functional=name, p=p, restarts=3, iterations=30, probes=20)
        configs = [
            SearchConfig(n=n, m=m, q=q, seed=seed, **budget)
            for (n, m, q) in ((2, 1, 1.0), (3, 2, math.inf), (4, 2, 3.0))
            for seed in range(3)
        ]
        configs.append(
            SearchConfig(
                n=3, m=1, q=2.0, seed=0, plan_mode="monte-carlo", plan_samples=300, **budget
            )
        )
        digest = hashlib.sha256()
        for cfg in configs:
            digest.update(maximize_ratio(cfg).to_json().encode())
        assert digest.hexdigest() == self.DIGESTS[name]


class TestPreparedObjective:
    """An objective prepares its builder once: later calls build no weights,
    sign rows, checks or side objects.  A sweep of more than one chunk (the
    3,000-sample plan) decodes each chunk's sign rows as it reaches it, on
    every call, and nothing else."""

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    @pytest.mark.parametrize(
        "mode, samples", [("exact", 37), ("monte-carlo", 37), ("monte-carlo", 3000)],
        ids=["exact", "monte-carlo", "three-chunks"],
    )
    def test_calls_after_the_first_prepare_nothing(self, name, mode, samples, monkeypatch):
        import walshcube.norms as norms

        p = 1.5 if name.endswith("-type") else 2.5
        cfg = SearchConfig(
            functional=name, n=3, m=2, p=p, q=3.0, plan_mode=mode, plan_samples=samples
        )
        objective = SearchObjective(cfg)
        batch = np.random.default_rng(8).standard_normal((2, objective.dimension))
        first = objective(batch), objective.gradient(batch)
        made = []
        for owner, attr in (
            (np, "full"), (np, "tile"), (norms, "sign_matrix"), (norms, "_exact_signs"),
            (norms, "_q_kernels"), (norms.PRange, "check"),
        ):
            original = getattr(owner, attr)
            monkeypatch.setattr(
                owner, attr, lambda *a, _f=original, _n=attr, **k: made.append(_n) or _f(*a, **k)
            )
        again = objective(batch), objective.gradient(batch)
        if samples > 1024:
            made = [name for name in made if name != "sign_matrix"]
        assert made == []
        for a, b in zip(itertools.chain(*first), itertools.chain(*again)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_preparing_the_builder_checks_no_exponent(self, name, monkeypatch):
        # The config checked p; a prepared side checks none.
        import walshcube.norms as norms

        p = 1.5 if name.endswith("-type") else 2.5
        objective = SearchObjective(SearchConfig(functional=name, n=3, m=2, p=p, q=3.0))
        checks = []
        check = norms.PRange.check
        monkeypatch.setattr(
            norms.PRange, "check", lambda *a, **k: checks.append(a[1]) or check(*a, **k)
        )
        assert callable(objective._evaluate)
        assert checks == []

    def test_a_re_check_never_prepares_the_builder(self):
        cfg = SearchConfig(functional="umd", n=3, m=2, p=2.5, q=3.0, restarts=1, iterations=2)
        cert = maximize_ratio(cfg)
        objective = SearchObjective(cfg)
        objective.sides(cert.witness_array().reshape(-1))
        assert "_evaluate" not in vars(objective)
        objective(cert.witness_array().reshape(1, -1))
        assert "_evaluate" in vars(objective)


class TestBatchRows:
    CONFIG = SearchConfig(
        functional="pisier", n=2, m=1, p=2.0, q=2.0, restarts=2, iterations=3, probes=3
    )

    @pytest.mark.parametrize(
        "rows, message",
        [
            (0, "batch_rows must be >= 1, got 0"),
            (-3, "batch_rows must be >= 1, got -3"),
            (2.5, "batch_rows must be an integer, got 2.5"),
            (2.0, "batch_rows must be an integer, got 2.0"),
            (True, "batch_rows must be an integer, got True"),
            ("4", "batch_rows must be an integer, got '4'"),
        ],
    )
    def test_anything_but_a_positive_integer_is_refused_when_built(self, rows, message):
        with pytest.raises(ValueError) as info:
            SearchObjective(self.CONFIG, rows)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows", [1, 3, np.int64(2)])
    def test_positive_integers_run_the_search(self, rows):
        from walshcube.estimators import _certify

        objective = SearchObjective(self.CONFIG, rows)
        assert objective.batch_rows == rows and type(objective.batch_rows) is int
        assert _certify(objective).to_json() == maximize_ratio(self.CONFIG).to_json()


class TestSearchFailurePaths:
    def test_all_degenerate_probes_raise(self, monkeypatch):
        import numpy as np
        import walshcube.estimators as est

        class ZeroGenerator:
            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(est.np.random, "default_rng", lambda seed: ZeroGenerator())
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.0, q=2.0, restarts=1,
            iterations=5, probes=5, seed=0,
        )
        with pytest.raises(est.SearchFailedError, match="nondegenerate"):
            maximize_ratio(cfg)

    def test_non_finite_restarts_are_discarded_and_counted(self, monkeypatch):
        import walshcube.estimators as est

        # The second evaluation of all three restarts (after the gradient
        # batch that scores them) is their first line search, a ladder of two
        # rungs each in rows (restart, rung); the second restart's first rung
        # there is made non-finite.
        restart_batches = []
        original = est.SearchObjective.raw_sides

        def poisoned(self, batch, with_gradient=False):
            lhs, rhs = original(self, batch, with_gradient)
            if len(batch) in (3, 6):
                restart_batches.append(len(batch))
                if restart_batches == [3, 6]:
                    lhs[0][2] = np.inf
            return lhs, rhs

        monkeypatch.setattr(est.SearchObjective, "raw_sides", poisoned)
        cfg = SearchConfig(
            functional="pisier", n=2, m=1, p=2.5, q=3.0, restarts=3,
            iterations=5, probes=25, seed=1,
        )
        cert = maximize_ratio(cfg)
        assert len(restart_batches) >= 2
        assert restart_batches[:2] == [3, 6]
        assert cert.discarded_restarts == 1
        # The other two restarts climbed on as they would alone, so the
        # result is at most the oracle's, which keeps all three.
        oracle = maximize_ratio_sequential(cfg)
        assert oracle.discarded_restarts == 0
        assert cert.ratio <= oracle.ratio
        assert cert.ratio > 0
