import json
import os

import pytest

from selfish_mining.cli import main

from helpers import sm1_reference_revenue


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestOptimizeCommand:
    def test_writes_bounds_policy_manifest(self, workdir, capsys):
        rc = main(
            [
                "optimize", "--alpha", "0.3", "--gamma", "0", "--T", "10",
                "--eps", "1e-3", "--eps-prime", "1e-3", "--out", "run",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lower_bound=" in out and "upper_bound=" in out
        bounds = read_json("run.bounds.json")
        policy = read_json("run.policy.json")
        manifest = read_json("run.manifest.json")
        assert bounds["alpha"] == 0.3
        assert bounds["lower_bound"] <= bounds["upper_bound"]
        assert policy["T"] == 10 and len(policy["actions"]) == 3 * 11 * 11
        assert manifest["subcommand"] == "optimize"
        assert sorted(manifest["outputs"]) == ["run.bounds.json", "run.policy.json"]

    def test_alpha_validation(self, workdir, capsys):
        rc = main(["optimize", "--alpha", "0.6", "--gamma", "0"])
        assert rc == 2
        assert "alpha must be < 0.5" in capsys.readouterr().err

    def test_eps_validation(self, workdir, capsys):
        rc = main(["optimize", "--alpha", "0.35", "--gamma", "0", "--eps", "3"])
        assert rc == 2
        assert "8*alpha" in capsys.readouterr().err

    def test_json_errors(self, workdir, capsys):
        rc = main(["--json-errors", "optimize", "--alpha", "0.6", "--gamma", "0"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["code"] == 2 and "alpha" in payload["error"]


class TestEvaluateCommand:
    def test_builtin_sm1(self, workdir, capsys):
        rc = main(
            ["evaluate", "--policy", "sm1", "--alpha", "0.3", "--gamma", "0",
             "--T", "60", "--out", "ev"]
        )
        assert rc == 0
        rev = read_json("ev.evaluate.json")["rev"]
        assert rev == pytest.approx(sm1_reference_revenue(0.3, 0.0), abs=1e-5)

    def test_round_trip_with_optimize(self, workdir, capsys):
        eps = 1e-3
        main(
            ["optimize", "--alpha", "0.35", "--gamma", "0.5", "--T", "12",
             "--eps", str(eps), "--eps-prime", "1e-3", "--out", "opt"]
        )
        lower = read_json("opt.bounds.json")["lower_bound"]
        rc = main(
            ["evaluate", "--policy", "opt.policy.json", "--alpha", "0.35",
             "--gamma", "0.5", "--out", "ev"]
        )
        assert rc == 0
        rev = read_json("ev.evaluate.json")["rev"]
        assert abs(rev - (lower + eps)) <= eps

    def test_provenance_mismatch_needs_force(self, workdir, capsys):
        main(
            ["optimize", "--alpha", "0.3", "--gamma", "0", "--T", "8",
             "--eps", "1e-3", "--eps-prime", "1e-3", "--out", "opt"]
        )
        rc = main(
            ["evaluate", "--policy", "opt.policy.json", "--alpha", "0.31", "--gamma", "0"]
        )
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        rc = main(
            ["evaluate", "--policy", "opt.policy.json", "--alpha", "0.31",
             "--gamma", "0", "--force"]
        )
        assert rc == 0


class TestRenderCommand:
    def test_honest_policy_grid(self, workdir, capsys):
        main(
            ["optimize", "--alpha", "0.3", "--gamma", "0", "--T", "8",
             "--eps", "1e-3", "--eps-prime", "1e-3", "--out", "opt"]
        )
        capsys.readouterr()
        rc = main(["render", "--policy", "opt.policy.json", "--t-view", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("a\\h")
        assert len(lines) == 7  # header, rule, rows 0..4
        # the lead-one state is reachable and withheld or published
        row1 = lines[3].split("|")[1].split()
        assert row1[0][0] in "wo"

    def test_missing_file(self, workdir, capsys):
        rc = main(["render", "--policy", "nope.json"])
        assert rc == 2


class TestPolicyFileValidation:
    @pytest.mark.parametrize(
        "document,field",
        [
            ({"T": 5}, "'actions'"),
            ([1, 2], "object"),
            ({"T": 5, "actions": 3}, "'actions'"),
            ({"actions": ["adopt"]}, "'T'"),
            ({"T": 1, "actions": [["adopt"]]}, "unknown action"),
            ({"T": 1, "actions": ["adopt"] * 12, "alpha": "x"}, "'alpha'"),
            ({"T": 1, "actions": ["adopt"] * 12, "alpha": True}, "'alpha'"),
            ({"T": 1, "actions": ["adopt"] * 12, "gamma": "y"}, "'gamma'"),
            ({"T": 1, "actions": ["adopt"] * 12, "label": 3}, "'label'"),
            ({"T": 1, "actions": ["adopt"] * 12, "variant": "z"}, "'variant'"),
        ],
    )
    @pytest.mark.parametrize("subcommand", ["evaluate", "simulate", "render"])
    def test_malformed_policy_exits_2(self, workdir, capsys, subcommand, document, field):
        with open("p.json", "w") as handle:
            json.dump(document, handle)
        args = [subcommand, "--policy", "p.json"]
        if subcommand != "render":
            args += ["--alpha", "0.3", "--gamma", "0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


class TestSimulateCommand:
    def test_single_run_repro(self, workdir, capsys):
        args = [
            "simulate", "--policy", "honest", "--alpha", "0.3", "--gamma", "0",
            "--T", "10", "--rounds", "20000", "--seed", "5", "--out", "s1",
        ]
        assert main(args) == 0
        first = read_json("s1.sim.json")
        args[-1] = "s2"
        assert main(args) == 0
        second = read_json("s2.sim.json")
        assert first == second
        assert abs(first["rev"] - 0.3) < 0.02

    def test_replicas_csv(self, workdir, capsys):
        rc = main(
            ["simulate", "--policy", "sm1", "--alpha", "0.35", "--gamma", "0",
             "--T", "12", "--rounds", "5000", "--seed", "1", "--replicas", "3",
             "--out", "batch"]
        )
        assert rc == 0
        with open("batch.replicas.csv") as handle:
            text = handle.read()
        lines = text.strip().split("\n")
        assert lines[0] == "replica,seed,rev"
        assert len(lines) == 4
        assert "\r" not in text
        for line in lines[1:]:
            replica, seed, rev = line.split(",")
            float(rev)
            int(replica), int(seed)


class TestThresholdCommand:
    def test_fully_connected(self, workdir, capsys):
        rc = main(
            ["threshold", "--gamma", "1", "--T", "10", "--eps", "1e-3",
             "--alpha-tol", "0.05", "--out", "thr"]
        )
        assert rc == 0
        report = read_json("thr.threshold.json")
        assert report["alpha_lower"] <= 0.05
        assert report["threshold"] == report["alpha_lower"]


class TestSweepCommand:
    def test_csv_output_and_determinism(self, workdir, capsys):
        args = [
            "sweep", "--alphas", "0.3,0.35", "--gammas", "0", "--T", "10",
            "--eps", "1e-3", "--eps-prime", "1e-3", "--out", "sweep.csv",
        ]
        assert main(args) == 0
        with open("sweep.csv") as handle:
            first = handle.read()
        lines = first.strip().split("\n")
        assert lines[0] == (
            "alpha,gamma,variant,T,epsilon,honest_rev,sm1_rev,"
            "lower_bound,upper_bound,ceiling"
        )
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "0.300000" and cells[5] == "0.300000"
        os.rename("sweep.csv", "sweep1.csv")
        assert main(args) == 0
        with open("sweep.csv") as handle:
            assert handle.read() == first

    def test_alpha_range_checked(self, workdir, capsys):
        rc = main(["sweep", "--alphas", "0.6", "--gammas", "0"])
        assert rc == 2


class TestDelayCommand:
    def test_json_payload(self, workdir, capsys):
        rc = main(
            ["delay", "--alpha", "0.3", "--lambda", "1", "--d-ah", "0",
             "--d-ha", "0", "--rho", "0.3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload == {"q": 0.09, "min_k": 3, "gain_at_min_k": pytest.approx(0.06)}

    def test_rho_validation(self, workdir, capsys):
        rc = main(["delay", "--alpha", "0.3", "--lambda", "1", "--rho", "1.5"])
        assert rc == 2
