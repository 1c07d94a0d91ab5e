"""Command-line surface: flags, exit codes, file formats, golden data."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from walshcube.cli import main
from walshcube.estimators import (
    FUNCTIONAL_NAMES,
    RatioCertificate,
    _certificate_digest,
    _freeze,
    load_certificate,
)
from walshcube.hypercube import HypercubeFunction
from walshcube.inequalities import (
    corollary2_lhs,
    corollary2_rhs,
    hn_remark_lhs,
    hn_remark_rhs,
    k_convexity_ratio,
    pisier_lhs,
    pisier_rhs,
    rademacher_type_ratio,
    stein_lhs,
    stein_rhs,
    theorem1_lhs,
    theorem1_rhs,
)
from walshcube.martingales import (
    FiniteFiltration,
    MartingaleSequence,
    martingale_lp_norm,
    martingale_type_ratio,
    umd_minus_ratio,
    umd_plus_ratio,
    umd_ratio,
)
from walshcube.norms import FunctionFamily, NormSpace, RademacherAveragePlan, lp_norm
from walshcube.operators import rademacher_projection
from walshcube.verification import CHECK_NAMES, run_verification_suite

REPO = pathlib.Path(__file__).resolve().parent.parent


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


@pytest.fixture
def sample_function(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "f.json"
    write_json(path, {"n": 3, "m": 2, "values": rng.standard_normal((8, 2)).tolist()})
    return path


# The witness each functional's `eval` reads.
INPUT_KIND = {
    "pisier": "function",
    "k-convexity": "function",
    "theorem1": "family",
    "corollary2": "family",
    "stein": "family",
    "hn-remark": "family",
    "rademacher-type": "vectors",
    "umd": "martingale",
    "umd-plus": "martingale",
    "umd-minus": "martingale",
    "martingale-type": "martingale",
}


def tree_martingale(m, seed):
    """A 3-step martingale on a weighted 6-point tree: conditional expectations of a final table."""
    filtration = FiniteFiltration.tree(
        [[0] * 6, [0, 0, 0, 1, 1, 1], [0, 0, 1, 2, 2, 3], [0, 1, 2, 3, 4, 5]],
        [0.1, 0.2, 0.15, 0.25, 0.1, 0.2],
    )
    final = np.random.default_rng(seed).standard_normal((6, m))
    values = np.stack([filtration.condition(final, level) for level in range(4)])
    return MartingaleSequence(filtration=filtration, m=m, values=values)


@pytest.fixture
def eval_inputs(tmp_path):
    """Seeded inputs of every witness kind: (path, witness) by kind."""
    rng = np.random.default_rng(21)
    f = HypercubeFunction.from_values(rng.standard_normal((8, 3)))
    family = FunctionFamily(
        tuple(HypercubeFunction.from_values(rng.standard_normal((8, 3))) for _ in range(3))
    )
    vectors = rng.standard_normal((4, 3))
    M = tree_martingale(3, seed=22)
    payloads = {
        "function": (f.to_json_dict(), f),
        "family": (family.to_json_dict(), family),
        "vectors": ({"vectors": vectors.tolist()}, vectors),
        "martingale": (M.to_json_dict(), M),
    }
    inputs = {}
    for kind, (payload, witness) in payloads.items():
        path = tmp_path / f"{kind}.json"
        write_json(path, payload)
        inputs[kind] = (path, witness)
    return inputs


def library_values(name, witness, p, space, plan):
    """(lhs, rhs, ratio) of a functional through the library functions; None where none computes it."""
    if INPUT_KIND[name] == "martingale":
        increment = martingale_lp_norm(witness.increment(), p, space, witness.filtration.probabilities)
    values = {
        "pisier": lambda f: (pisier_lhs(f, p, space), pisier_rhs(f, p, space, plan), None),
        "theorem1": lambda g: (theorem1_lhs(g, p, space), theorem1_rhs(g, p, space, plan), None),
        "corollary2": lambda g: (
            corollary2_lhs(g, p, space), corollary2_rhs(g, p, space, plan), None
        ),
        "stein": lambda g: (stein_lhs(g, p, space, plan), stein_rhs(g, p, space, plan), None),
        "hn-remark": lambda g: (hn_remark_lhs(g, p, space), hn_remark_rhs(g, p, space, plan), None),
        "k-convexity": lambda f: (
            lp_norm(rademacher_projection(f), p, space),
            lp_norm(f, p, space),
            k_convexity_ratio(f, p, space),
        ),
        "rademacher-type": lambda v: (None, None, rademacher_type_ratio(v, p, space)),
        "umd": lambda M: (None, increment, umd_ratio(M, p, space)),
        "umd-plus": lambda M: (None, increment, umd_plus_ratio(M, p, space, plan)),
        "umd-minus": lambda M: (increment, None, umd_minus_ratio(M, p, space, plan)),
        "martingale-type": lambda M: (increment, None, martingale_type_ratio(M, p, space)),
    }
    return values[name](witness)


def run_eval(name, path, *flags):
    return main(["--command", "eval", "--functional", name, "--in", str(path), *flags])


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--command", "verify", "--n", "4", "--m", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert set(names) == set(CHECK_NAMES)

    def test_degenerate_size_path(self, capsys):
        assert main(["--command", "verify", "--n", "1", "--m", "1"]) == 0
        capsys.readouterr()

    def test_corrupted_operator_fails_and_is_named(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--command", "verify", "--n", "3", "--m", "1",
                "--corrupt", "averaging-complement", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "averaging-complement" in captured.err
        report = json.loads(out.read_text())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["averaging-complement"]

    def test_corrupted_gradient_check_fails(self, tmp_path, capsys):
        code = main(
            [
                "--command", "verify", "--n", "3", "--m", "1",
                "--corrupt", "gradient-vs-finite-difference", "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "gradient-vs-finite-difference" in capsys.readouterr().err

    def test_corrupted_batched_check_fails(self, tmp_path, capsys):
        code = main(
            [
                "--command", "verify", "--n", "3", "--m", "1",
                "--corrupt", "batched-vs-single", "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "batched-vs-single" in capsys.readouterr().err

    def test_corrupted_halving_check_fails(self, tmp_path, capsys):
        code = main(
            [
                "--command", "verify", "--n", "3", "--m", "1",
                "--corrupt", "halved-vs-full-enumeration", "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "halved-vs-full-enumeration" in capsys.readouterr().err

    def test_corrupted_ladder_check_fails(self, tmp_path, capsys):
        code = main(
            [
                "--command", "verify", "--n", "3", "--m", "1",
                "--corrupt", "ladder-vs-one-row-search", "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "ladder-vs-one-row-search" in capsys.readouterr().err

    def test_suite_runs_every_documented_check(self):
        results = run_verification_suite(n=3, m=1, seed=0, rounds=3)
        assert sorted(r.name for r in results) == sorted(CHECK_NAMES)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_corrupting_a_check_fails_exactly_that_check(self, name):
        results = run_verification_suite(n=3, m=1, rounds=1, corrupt=name)
        assert [r.name for r in results] == list(CHECK_NAMES)
        assert [r.name for r in results if not r.passed] == [name]

    def test_nan_deviation_fails_its_check(self, monkeypatch):
        import walshcube.verification as verification

        monkeypatch.setattr(
            verification, "character_matrix", lambda n: np.full((1 << n, 1 << n), np.nan)
        )
        results = run_verification_suite(n=3, m=1, rounds=1)
        assert [r.name for r in results if not r.passed] == ["character-orthogonality"]

    @pytest.mark.parametrize(
        "flags",
        [["--corrupt", "no-such-check"], ["--n", "0"], ["--n", "21"]],
        ids=["unknown-corrupt", "n-zero", "n-too-large"],
    )
    def test_bad_suite_input_is_an_input_error(self, flags, capsys):
        code = main(["--command", "verify", "--n", "3", "--m", "1", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def oversampled_certificate(path):
    """The committed certificate, sealed again with a 10^12-sample Monte Carlo plan."""
    cert = json.loads((REPO / "data" / "pisier_certificate.json").read_text())
    cert["config"].update(plan_mode="monte-carlo", plan_samples=10**12)
    sealed = RatioCertificate.from_json_dict(cert)
    cert["digest"] = _certificate_digest(
        sealed.functional, sealed.witness_kind, sealed.witness, sealed.config
    )
    write_json(path, cert)
    return path


@pytest.mark.parametrize("command", ["eval", "estimate", "check"])
def test_monte_carlo_budget_exits_before_allocating(command, sample_function, tmp_path, capsys):
    budget = ["--mode", "mc", "--samples", "1000000000000"]
    flags = {
        "eval": ["--in", str(sample_function), *budget],
        "estimate": ["--n", "3", *budget],
        "check": ["--in", str(oversampled_certificate(tmp_path / "cert.json"))],
    }[command]
    tracemalloc.start()
    try:
        code = main(["--command", command, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert "2^20 samples" in captured.err
    assert peak < 1 << 20


class TestEvalCommand:
    def test_pisier_json_report(self, sample_function, capsys):
        code = main(
            ["--command", "eval", "--functional", "pisier", "--in", str(sample_function)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "pisier"
        assert 0 < report["ratio"] < 10

    def test_csv_format(self, sample_function, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "--command", "eval", "--functional", "pisier",
                "--in", str(sample_function), "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "name,n,m,p,q,lhs,rhs,ratio,seed,mode"
        assert rows[1].startswith("pisier,3,2,")

    def test_degenerate_exit_code(self, tmp_path, capsys):
        path = tmp_path / "const.json"
        write_json(path, {"n": 2, "m": 1, "values": [[5.0]] * 4})
        code = main(["--command", "eval", "--functional", "pisier", "--in", str(path)])
        capsys.readouterr()
        assert code == 3

    def test_theorem1_hilbert_ratio_below_one(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((16, 2)).tolist()
        path = tmp_path / "family.json"
        write_json(path, {"n": 4, "m": 2, "functions": [f, f, f, f]})
        code = main(
            [
                "--command", "eval", "--functional", "theorem1",
                "--in", str(path), "--p", "2", "--q", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] <= 1 + 1e-9

    def test_golden_corollary2(self, capsys):
        code = main(
            [
                "--command", "eval", "--functional", "corollary2",
                "--in", str(REPO / "data" / "sample_family.json"),
                "--p", "2", "--q", "2", "--mode", "exact",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        golden = json.loads((REPO / "data" / "golden_corollary2.json").read_text())
        assert report["lhs"] == pytest.approx(golden["lhs"], rel=1e-9)
        assert report["rhs"] == pytest.approx(golden["rhs"], rel=1e-9)
        assert report["ratio"] == pytest.approx(golden["ratio"], rel=1e-9)

    def test_golden_file_reproduces_from_naive_oracles(self):
        # Guard: the committed numbers really came from the direct definitions.
        import make_golden
        from _naive import lp_norm_sum, rademacher_average_enumerated

        family = json.loads((REPO / "data" / "sample_family.json").read_text())
        tables = [np.asarray(t) for t in family["functions"]]
        derivatives = [
            make_golden.naive_derivative(t, i) for i, t in enumerate(tables, start=1)
        ]
        total = np.zeros_like(tables[0])
        for d in derivatives:
            total += make_golden.naive_inverse_laplacian(d)
        golden = json.loads((REPO / "data" / "golden_corollary2.json").read_text())
        assert lp_norm_sum(total, 2.0, 2.0) == pytest.approx(golden["lhs"], rel=1e-12)
        assert rademacher_average_enumerated(np.stack(derivatives), 2.0, 2.0) == (
            pytest.approx(golden["rhs"], rel=1e-12)
        )

    def test_umd_eval_accepts_plain_function(self, sample_function, capsys):
        code = main(
            [
                "--command", "eval", "--functional", "umd-plus",
                "--in", str(sample_function), "--p", "2", "--q", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_rademacher_type_eval(self, tmp_path, capsys):
        path = tmp_path / "vectors.json"
        write_json(path, {"vectors": [[1.0, 0.0], [0.0, 1.0]]})
        code = main(
            [
                "--command", "eval", "--functional", "rademacher-type",
                "--in", str(path), "--p", "2", "--q", "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_missing_file_is_input_error(self, capsys):
        code = main(["--command", "eval", "--functional", "pisier", "--in", "nowhere.json"])
        capsys.readouterr()
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        code = main(["--command", "eval", "--functional", "pisier", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert ":1:" in captured.err

    def test_shape_mismatch_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad_shape.json"
        write_json(path, {"n": 3, "m": 1, "values": [[1.0]] * 6})
        code = main(["--command", "eval", "--functional", "pisier", "--in", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_overflowing_sides_are_an_input_error(self, tmp_path):
        # Finite entries whose squares overflow: lhs and rhs are inf, their ratio NaN.
        path = tmp_path / "huge.json"
        write_json(path, {"n": 1, "m": 2, "values": [[1e200, 1e200], [-1e200, 3.0]]})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-m", "walshcube.cli", "--command", "eval", "--functional",
             "pisier", "--p", "2", "--q", "2", "--in", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("input error: ") and done.stderr.count("\n") == 1
        assert "not finite" in done.stderr


class TestEvalThroughTheLibrary:
    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_sides_equal_the_library_functions(self, name, eval_inputs, capsys):
        path, witness = eval_inputs[INPUT_KIND[name]]
        assert run_eval(name, path, "--p", "1.5", "--q", "3", "--mode", "exact") == 0
        report = json.loads(capsys.readouterr().out)
        plan = RademacherAveragePlan(mode="exact", seed=7)
        expected = library_values(name, witness, 1.5, NormSpace(3, 3.0), plan)
        for key, value in zip(("lhs", "rhs", "ratio"), expected):
            if value is not None:
                assert report[key] == value, key

    # Per functional: p values just outside its range, and one inside it.
    P_PROBES = {
        "pisier": ((0.99, math.inf), 1.0),
        "theorem1": ((1.0, math.inf), 1.01),
        "corollary2": ((1.0, math.inf), 1.01),
        "stein": ((1.0, math.inf), 1.01),
        "hn-remark": ((1.0, math.inf), 1.01),
        "k-convexity": ((0.99, 1.0, math.inf), 1.01),
        "rademacher-type": ((1.0, 2.01), 2.0),
        "umd": ((1.0, math.inf), 1.01),
        "umd-plus": ((0.99, 1.0, math.inf), 1.01),
        "umd-minus": ((0.99, 1.0, math.inf), 1.01),
        "martingale-type": ((1.0, 2.01), 2.0),
    }

    # Per functional: its library functions, each called as fn(witness, p, space, plan).
    LIBRARY_FUNCTIONS = {
        "pisier": (lambda f, p, space, plan: pisier_lhs(f, p, space), pisier_rhs),
        "theorem1": (lambda g, p, space, plan: theorem1_lhs(g, p, space), theorem1_rhs),
        "corollary2": (lambda g, p, space, plan: corollary2_lhs(g, p, space), corollary2_rhs),
        "stein": (stein_lhs, stein_rhs),
        "hn-remark": (lambda g, p, space, plan: hn_remark_lhs(g, p, space), hn_remark_rhs),
        "k-convexity": (lambda f, p, space, plan: k_convexity_ratio(f, p, space),),
        "rademacher-type": (lambda v, p, space, plan: rademacher_type_ratio(v, p, space),),
        "umd": (lambda M, p, space, plan: umd_ratio(M, p, space),),
        "umd-plus": (umd_plus_ratio,),
        "umd-minus": (umd_minus_ratio,),
        "martingale-type": (lambda M, p, space, plan: martingale_type_ratio(M, p, space),),
    }

    @pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
    def test_p_range(self, name, eval_inputs, capsys):
        path, witness = eval_inputs[INPUT_KIND[name]]
        outside, inside = self.P_PROBES[name]
        space, plan = NormSpace(3, 2.0), RademacherAveragePlan(mode="exact")
        for p in outside:
            assert run_eval(name, path, "--p", str(p)) == 2, p
            for library_function in self.LIBRARY_FUNCTIONS[name]:
                with pytest.raises(ValueError, match="requires p in"):
                    library_function(witness, p, space, plan)
        assert run_eval(name, path, "--p", str(inside)) == 0
        for library_function in self.LIBRARY_FUNCTIONS[name]:
            assert math.isfinite(library_function(witness, inside, space, plan))
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["umd", "umd-plus", "umd-minus", "martingale-type"])
    def test_constant_input_prints_a_degenerate_report(self, name, tmp_path, capsys):
        path = tmp_path / "const.json"
        write_json(path, {"n": 2, "m": 1, "values": [[5.0]] * 4})
        assert run_eval(name, path) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["degenerate"] is True and report["ratio"] is None

    def test_rademacher_type_reports_exact_enumeration(self, eval_inputs, capsys):
        path, _ = eval_inputs["vectors"]
        assert run_eval("rademacher-type", path, "--p", "2", "--mode", "mc") == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "exact"

    @pytest.mark.parametrize(
        "name,payload",
        [
            ("theorem1", {"functions": 5}),
            ("pisier", [1, 2]),
            ("umd", [1, 2]),
            ("rademacher-type", {"vectors": [1, 2, 3]}),
            ("rademacher-type", {"vectors": []}),
            ("rademacher-type", {"vectors": 5}),
            ("stein", []),
            ("umd-plus", {"values": 5}),
            ("umd", {"filtration": 5, "m": 1, "values": []}),
            ("umd", {"filtration": {"kind": "tree"}, "m": 1, "values": []}),
            ("pisier", {"values": [{}]}),
            ("theorem1", {"functions": [[{}]]}),
            ("rademacher-type", {"vectors": [[{}]]}),
            # Two members on C_2 with m = 1 inside a family that declares another shape.
            ("theorem1", {"n": 5, "m": 7, "functions": [[[1.0], [2.0], [0.0], [-1.0]]] * 2}),
        ],
    )
    def test_malformed_input_is_a_one_line_input_error(self, name, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_json(path, payload)
        assert run_eval(name, path) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1


class TestDyadicFiltrationFiles:
    def martingale_file(self, tmp_path, probabilities, levels):
        path = tmp_path / "M.json"
        filtration = {
            "kind": "dyadic-hypercube", "n": 2, "probabilities": probabilities, "levels": levels
        }
        values = [[[0.0]] * 4, [[1.0], [-1.0], [1.0], [-1.0]], [[2.0], [-2.0], [0.0], [0.0]]]
        write_json(path, {"filtration": filtration, "m": 1, "values": values})
        return path

    def test_mislabelled_tree_is_an_input_error(self, tmp_path, capsys):
        # A legal tree, but not the coordinate filtration its kind claims.
        levels = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]]
        path = self.martingale_file(tmp_path, [0.1, 0.2, 0.3, 0.4], levels)
        assert run_eval("umd-plus", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "dyadic-hypercube" in err

    def test_non_uniform_probabilities_are_an_input_error(self, tmp_path, capsys):
        levels = FiniteFiltration.dyadic(2).to_json_dict()["levels"]
        path = self.martingale_file(tmp_path, [0.1, 0.2, 0.3, 0.4], levels)
        assert run_eval("umd-plus", path) == 2
        capsys.readouterr()

    def test_the_coordinate_filtration_written_out_is_accepted(self, tmp_path, capsys):
        spec = FiniteFiltration.dyadic(2).to_json_dict()
        path = self.martingale_file(tmp_path, spec["probabilities"], spec["levels"])
        assert run_eval("umd-plus", path) == 0
        capsys.readouterr()

    def test_declared_size_is_checked_before_the_filtration_is_built(self, tmp_path, capsys):
        # 82 bytes declaring 18 steps: the coordinate filtration alone would take 46 MB.
        path = tmp_path / "M.json"
        write_json(path, {"filtration": {"kind": "dyadic-hypercube", "n": 18}, "m": 1,
                          "values": [[[0.0]]]})
        tracemalloc.start()
        try:
            code = run_eval("umd", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert peak < 1 << 20


def test_umd_beyond_20_steps_fails_before_any_mask_is_built(tmp_path, capsys):
    # Two points and 21 steps, of which only the first moves: the 2^21 sign
    # patterns of exact enumeration would take a 16 MiB mask array.
    filtration = FiniteFiltration.tree([[0, 0]] + [[0, 1]] * 21, [0.5, 0.5])
    values = np.array([[[0.0], [0.0]]] + [[[1.0], [-1.0]]] * 21)
    M = MartingaleSequence(filtration=filtration, m=1, values=values)
    path = tmp_path / "M.json"
    write_json(path, M.to_json_dict())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited to 20"):
            umd_ratio(M, 2.0, NormSpace(1, 2.0))
        library_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = run_eval("umd", path)
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "limited to 20" in err
    assert library_peak < 1 << 20 and eval_peak < 1 << 20


class TestEstimateCommand:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("estimate", ["--n", "0"]),
            ("estimate", ["--n", "-1"]),
            ("estimate", ["--n", "21"]),
            ("estimate", ["--n", "20", "--m", "1048576"]),
            ("scan", ["--n", "0"]),
            ("scan", ["--n", "21"]),
            ("scan", ["--n-min", "0", "--n", "1"]),
            ("verify", ["--n", "20", "--m", "100000000000"]),
            ("bench", ["--n", "1", "--m", "100000000000"]),
            ("bench", ["--n", "40"]),
        ],
    )
    def test_dimension_out_of_range_exits_before_allocating(self, command, flags, tmp_path, capsys):
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["--command", command, *flags, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert peak < 1 << 20
        assert not out.exists()

    def test_zero_target_dimension_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        flags = ["--functional", "pisier", "--n", "4", "--m", "0", "--out", str(out)]
        code = main(["--command", "estimate", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: target dimension m must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_negative_seed_is_an_input_error_naming_it(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--command", command, "--n", "3", "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_eval_seed_is_an_input_error_naming_it(self, sample_function, capsys):
        # A Monte Carlo plan keys its masks on the seed modulo 2^64, so -1
        # would silently run the plan of seed 2^64 - 1.
        flags = ["--functional", "pisier", "--in", str(sample_function), "--mode", "mc"]
        code = main(["--command", "eval", *flags, "--samples", "8", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: seed must be >= 0, got -1\n"

    def test_pisier_at_p_one_is_certified_and_checked(self, tmp_path, capsys):
        # pisier's range is [1, inf), not the (1, inf) of the other functionals.
        out = tmp_path / "cert.json"
        flags = ["--functional", "pisier", "--n", "3", "--p", "1", "--q", "inf"]
        flags += ["--restarts", "2", "--iters", "20", "--probes", "20", "--seed", "1"]
        assert main(["--command", "estimate", *flags, "--out", str(out)]) == 0
        assert main(["--command", "check", "--in", str(out)]) == 0
        assert main(["--command", "estimate", *flags[:6], "--p", "inf"]) == 2
        assert "pisier requires p in [1, inf)" in capsys.readouterr().err

    def test_certificate_file_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        flags = [
            "--command", "estimate", "--functional", "pisier", "--n", "2", "--m", "1",
            "--p", "2", "--q", "2", "--restarts", "2", "--iters", "80",
            "--probes", "20", "--seed", "11",
        ]
        assert main(flags + ["--out", str(out_a)]) == 0
        assert main(flags + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        cert = json.loads(out_a.read_text())
        assert cert["ratio"] == pytest.approx(1.0, abs=1e-6)


class TestCheckCommand:
    # Written by `estimate` (n=5, m=2, p=2.5, q=3, seed 1) while exact sweeps
    # still visited every sign pattern; the halved sweep moves its rhs by one ulp.
    FIXTURE = REPO / "data" / "pisier_certificate.json"
    # Written by `estimate` with these flags while each dyadic martingale was
    # conditioned level by level, twice per level; the one-pass levels keep its bytes.
    UMD_FIXTURE = REPO / "data" / "umd_certificate.json"
    UMD_FLAGS = ["--functional", "umd", "--n", "4", "--m", "2", "--p", "2", "--q", "1"]
    UMD_FLAGS += ["--seed", "1", "--restarts", "4", "--iters", "20", "--probes", "50"]

    def run_check(self, path, capsys):
        code = main(["--command", "check", "--in", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def write_resealed(self, cert, path):
        """Write `cert` with its digest recomputed over its edited payload."""
        config = types.SimpleNamespace(to_json_dict=lambda: cert["config"])
        witness = _freeze(cert["witness"])
        kind = cert["witness_kind"]
        cert["digest"] = _certificate_digest(cert["functional"], kind, witness, config)
        write_json(path, cert)

    def test_committed_certificate_holds(self, capsys):
        code, out, err = self.run_check(self.FIXTURE, capsys)
        assert code == 0 and err == ""
        assert out.startswith("pisier: ratio ") and out.count("\n") == 1

    def test_fresh_certificate_holds(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        flags = ["--functional", "umd-plus", "--n", "3", "--m", "2", "--q", "1"]
        flags += ["--restarts", "1", "--iters", "3", "--probes", "4", "--out", str(path)]
        assert main(["--command", "estimate", *flags]) == 0
        capsys.readouterr()
        assert self.run_check(path, capsys)[0] == 0

    def test_committed_umd_certificate_holds(self, capsys):
        code, out, err = self.run_check(self.UMD_FIXTURE, capsys)
        assert code == 0 and err == ""
        assert out.startswith("umd: ratio ") and out.count("\n") == 1

    def test_fresh_umd_certificate_has_the_committed_bytes(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        assert main(["--command", "estimate", *self.UMD_FLAGS, "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == self.UMD_FIXTURE.read_bytes()

    def test_zero_target_dimension_is_an_input_error(self, tmp_path, capsys):
        # An empty witness under a digest recomputed for m = 0 reaches the search
        # objective unless the config itself is refused.
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert["config"]["m"] = 0
        cert["witness"] = []
        path = tmp_path / "cert.json"
        self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 2 and out == ""
        assert err == "input error: target dimension m must be >= 1, got 0\n"

    @pytest.mark.parametrize("fixture", [FIXTURE, UMD_FIXTURE], ids=["pisier", "umd"])
    def test_committed_certificates_keep_their_bytes(self, fixture):
        assert load_certificate(str(fixture)).to_json() == fixture.read_text()

    def test_functional_other_than_the_configs_does_not_hold(self, tmp_path, capsys):
        # Under a resealed digest the umd witness would re-check as pisier,
        # the config's functional, and certify a ratio pisier does not reach.
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert["functional"] = "pisier"
        path = tmp_path / "cert.json"
        self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 1 and out == ""
        assert err == "certificate does not hold: functional 'pisier' is not the config's 'umd'\n"

    def test_flattened_witness_does_not_hold(self, tmp_path, capsys):
        # The (16, 2) umd witness written as its 32 numbers, under a resealed
        # digest, has the size of the search's shape but not the shape.
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert["witness"] = [value for row in cert["witness"] for value in row]
        path = tmp_path / "cert.json"
        self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 1 and out == ""
        assert err == (
            "certificate does not hold: witness of shape (32,) where umd reads (16, 2)\n"
        )

    def test_ragged_witness_is_an_input_error(self, tmp_path, capsys):
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert["witness"][3] = cert["witness"][3][:1]
        path = tmp_path / "cert.json"
        self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", -1),
            ("seed", "1"),
            ("seed", 1.5),
            ("seed", True),
            ("restarts", 2.5),
            ("iterations", None),
            ("probes", "50"),
            ("plan_samples", 2.5),
            ("n", True),
            ("m", 2.0),
            ("p", "2"),
            ("p", False),
            ("step", 2e-05),
            ("tol", 0.0),
            ("tol", "1e-09"),
        ],
    )
    def test_malformed_config_field_is_an_input_error_naming_it(
        self, key, value, tmp_path, capsys
    ):
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert["config"][key] = value
        path = tmp_path / "cert.json"
        self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert f"{key} must be" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("discarded_restarts", 2.7),
            ("discarded_restarts", "3"),
            ("discarded_restarts", -4),
            ("discarded_restarts", True),
            ("lhs", "0.5"),
            ("rhs", True),
            ("ratio", None),
            ("functional", 3),
            ("witness_kind", ["function"]),
            ("digest", 7),
        ],
    )
    def test_malformed_certificate_field_is_an_input_error_naming_it(
        self, key, value, tmp_path, capsys
    ):
        cert = json.loads(self.UMD_FIXTURE.read_text())
        cert[key] = value
        path = tmp_path / "cert.json"
        if key == "digest":
            write_json(path, cert)
        else:
            self.write_resealed(cert, path)
        code, out, err = self.run_check(path, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: certificate {key} must be ") and err.count("\n") == 1

    def test_umd_recheck_builds_no_filtration_or_martingale(self, monkeypatch, capsys):
        # The witness is read raw, as the increments of its dyadic martingale.
        def refuse(*args):
            raise AssertionError("a martingale object was built")

        FiniteFiltration.dyadic.cache_clear()
        monkeypatch.setattr(MartingaleSequence, "__post_init__", refuse)
        monkeypatch.setattr(MartingaleSequence, "_trusted", classmethod(refuse))
        assert self.run_check(self.UMD_FIXTURE, capsys)[0] == 0
        assert FiniteFiltration.dyadic.cache_info().misses == 0

    def test_negative_seed_flag_is_an_input_error_naming_it(self, capsys):
        code = main(["--command", "estimate", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "input error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("field", ["lhs", "ratio", "witness"])
    def test_drift_or_tamper_fails(self, field, tmp_path, capsys):
        cert = json.loads(self.FIXTURE.read_text())
        if field == "witness":
            cert["witness"][0][0] += 1.0
        else:
            cert[field] *= 1.0 + 1e-6
        path = tmp_path / "cert.json"
        write_json(path, cert)
        code, out, err = self.run_check(path, capsys)
        assert code == 1 and out == ""
        assert err.startswith("certificate does not hold: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"functional": "pisier"},
            "__broken__",
            "__no_config__",
        ],
    )
    def test_malformed_file_is_an_input_error(self, payload, tmp_path, capsys):
        path = tmp_path / "cert.json"
        if payload == "__broken__":
            path.write_text(self.FIXTURE.read_text()[:-40])
        elif payload == "__no_config__":
            cert = json.loads(self.FIXTURE.read_text())
            cert["config"] = {"n": "3"}
            write_json(path, cert)
        else:
            write_json(path, payload)
        code, out, err = self.run_check(path, capsys)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1


def test_infinite_q_is_written_as_inf(sample_function, capsys):
    assert run_eval("pisier", sample_function, "--q", "inf") == 0
    assert '"q": "inf"' in capsys.readouterr().out
    assert run_eval("pisier", sample_function, "--q", "inf", "--format", "csv") == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert row[header.index("q")] == "inf"
    flags = ["--n", "2", "--m", "1", "--q", "inf", "--restarts", "1", "--iters", "2", "--probes", "3"]
    assert main(["--command", "estimate", *flags]) == 0
    assert '"q": "inf"' in capsys.readouterr().out


class TestScanCommand:
    def test_hilbert_scan_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "--command", "scan", "--functional", "pisier", "--n-min", "1",
                "--n-max", "3", "--m", "1", "--p", "2", "--q", "2",
                "--restarts", "2", "--iters", "100", "--probes", "20",
                "--seed", "3", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "ratio", "envelope_2e_log_n"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_target_dimension_grows_as_two_to_the_n(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        flags = ["--n-min", "1", "--n-max", "2", "--m", "0", "--restarts", "1"]
        flags += ["--iters", "2", "--probes", "3", "--out", str(out)]
        assert main(["--command", "scan", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:2]] == [["n=1", "m=2"], ["n=2", "m=4"]]
        assert len(out.read_text().splitlines()) == 3

    def test_empty_range_is_input_error(self, capsys):
        code = main(["--command", "scan", "--n-min", "5", "--n-max", "3"])
        capsys.readouterr()
        assert code == 2


class TestBenchCommand:
    def test_bench_emits_timings_and_checks_agreement(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            ["--command", "bench", "--n", "6", "--m", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["worst_agreement"] <= 1e-12
        ns = [row["n"] for row in payload["rows"]]
        assert ns == list(range(1, 7))
        assert all("speedup" in row for row in payload["rows"])

    def test_single_point_cube(self, capsys):
        assert main(["--command", "bench", "--n", "1", "--m", "1"]) == 0
        capsys.readouterr()


class TestTransformCommand:
    def test_forward_then_inverse_round_trip(self, sample_function, tmp_path, capsys):
        spec_path = tmp_path / "spectrum.json"
        back_path = tmp_path / "back.json"
        assert main(
            ["--command", "transform", "--in", str(sample_function), "--out", str(spec_path)]
        ) == 0
        spectrum = json.loads(spec_path.read_text())
        assert "coefficients" in spectrum
        assert main(
            ["--command", "transform", "--in", str(spec_path), "--out", str(back_path)]
        ) == 0
        capsys.readouterr()
        original = json.loads(sample_function.read_text())
        back = json.loads(back_path.read_text())
        assert_allclose(
            np.asarray(back["values"]), np.asarray(original["values"]), rtol=1e-12, atol=1e-14
        )

    def test_unrecognized_payload(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        write_json(path, {"n": 2, "m": 1})
        code = main(["--command", "transform", "--in", str(path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            {"values": [{}]},
            {"values": [[1e308], [1e308]]},
            {"coefficients": [[1e308], [1e308]]},
        ],
        ids=["top-level-number", "object-entry", "forward-overflow", "inverse-overflow"],
    )
    def test_malformed_or_overflowing_input_is_one_line_error(self, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_json(path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would be a second line
            code = main(["--command", "transform", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


class TestDeeplyNestedInput:
    def nested(self, depth):
        value = 1.0
        for _ in range(depth):
            value = [value]
        return value

    @pytest.mark.parametrize(
        "command",
        [["eval", "--functional", "pisier", "--q", "2"], ["check"], ["transform"]],
        ids=["eval", "check", "transform"],
    )
    def test_json_nested_past_the_decoder_is_an_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"values": ' + "[" * depth + "]" * depth + "}")
        code = main(["--command", *command, "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"input error: {path}: JSON nested too deeply to read\n"

    def test_witness_nested_past_any_kind_is_an_input_error(self, tmp_path, capsys):
        cert = json.loads(TestCheckCommand.UMD_FIXTURE.read_text())
        cert["witness"] = self.nested(600)
        path = tmp_path / "cert.json"
        write_json(path, cert)
        code = main(["--command", "check", "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("input error: certificate witness is not a numeric array")
        assert err.count("\n") == 1
