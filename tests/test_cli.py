import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfish_mining
from selfish_mining import mdp, model, optimize
from selfish_mining.cli import main

from helpers import sm1_reference_revenue


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_import_leaves_heavy_scipy_out():
    """A fresh interpreter importing the CLI loads numpy and scipy.sparse
    only: none of the scipy subpackages the package does not use."""
    src = os.path.dirname(os.path.dirname(selfish_mining.__file__))
    code = (
        "import sys, selfish_mining.cli\n"
        "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.fft')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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

    def test_nan_alpha_blames_alpha(self, workdir, capsys):
        rc = main(["optimize", "--alpha", "nan", "--gamma", "0", "--T", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha must be < 0.5 (got nan)" in err and "eps" not in err

    def test_eps_below_round_off_is_numeric_failure(self, workdir, capsys):
        """A tolerance below float64 round-off passes the input checks but
        no solve can reach it: exit 3, one error line, no data file."""
        rc = main(
            [
                "optimize", "--alpha", "0.3", "--gamma", "0.5", "--T", "8",
                "--eps", "1e-300", "--out", "run",
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.exists("run.bounds.json")
        assert not os.path.exists("run.policy.json")

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

    def test_nan_alpha_exits_2(self, workdir, capsys):
        rc = main(["evaluate", "--policy", "sm1", "--alpha", "nan", "--gamma", "0",
                   "--T", "5"])
        assert rc == 2
        assert "alpha must be" in capsys.readouterr().err

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
        assert rev == lower

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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nope.json" in err

    @pytest.mark.parametrize("t_view", ["-1", "9"])
    def test_t_view_outside_grid_exits_2(self, workdir, capsys, t_view):
        main(
            ["optimize", "--alpha", "0.3", "--gamma", "0", "--T", "8",
             "--eps", "1e-3", "--eps-prime", "1e-3", "--out", "opt"]
        )
        capsys.readouterr()
        rc = main(["render", "--policy", "opt.policy.json", "--t-view", t_view])
        assert rc == 2
        assert "t_view must be in [0, 8]" in capsys.readouterr().err


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

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    def test_replicas_validation(self, workdir, capsys, replicas):
        rc = main(
            ["simulate", "--policy", "honest", "--alpha", "0.3", "--gamma", "0",
             "--T", "5", "--rounds", "100", "--replicas", replicas, "--out", "s"]
        )
        assert rc == 2
        assert "replicas must be >= 1" in capsys.readouterr().err
        assert not os.path.exists("s.sim.json")

    def test_nan_alpha_exits_2(self, workdir, capsys):
        rc = main(
            ["simulate", "--policy", "sm1", "--alpha", "nan", "--gamma", "0",
             "--T", "5", "--rounds", "100", "--out", "s"]
        )
        assert rc == 2
        assert "alpha must be" in capsys.readouterr().err
        assert not os.path.exists("s.sim.json")

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "-1"], ["--seed", "0", "--replicas", "3", "--seed-stride", "-1"]],
    )
    def test_negative_seed_rejected(self, workdir, capsys, flags):
        rc = main(
            ["simulate", "--policy", "sm1", "--alpha", "0.3", "--gamma", "0",
             "--T", "5", "--rounds", "100", *flags, "--out", "s"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--seed-stride" in err
        assert "Traceback" not in err and "non-negative integer" not in err
        assert os.listdir(workdir) == []

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_undefined_revenue_is_strict_json_null(self, workdir, capsys, replicas):
        """One round can end before any block is accepted: rev, stderr and
        the batch statistics are then undefined and written as null."""
        rc = main(
            ["simulate", "--policy", "sm1", "--alpha", "0.45", "--gamma", "0",
             "--T", "10", "--rounds", "1", "--seed", "1", "--replicas", replicas,
             "--out", "s"]
        )
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with open("s.sim.json") as handle:
            data = json.loads(handle.read(), parse_constant=reject)
        undefined = ["rev", "stderr"] if replicas == "1" else ["mean_rev", "std_rev"]
        assert all(data[key] is None for key in undefined)

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


def test_infeasible_reachable_action_is_refused_alike(workdir, capsys):
    """SM1 with ``wait`` at the reachable boundary state (5,0,irrelevant),
    where adopt is the only feasible action: evaluate and simulate refuse it
    with the same message and write nothing; render draws it."""
    params = model.MiningParams(0.45, 0.0)
    actions = model.builtin_policy("sm1", 5, params).actions.copy()
    boundary = model.ChainState(5, 0, model.Fork.IRRELEVANT)
    actions[model.state_index(boundary, 5)] = model.Action.WAIT
    policy = model.Policy(T=5, actions=actions, alpha=0.45, gamma=0.0)
    with open("bad.json", "w") as handle:
        json.dump(policy.to_json_dict(), handle)
    point = ["--policy", "bad.json", "--alpha", "0.45", "--gamma", "0", "--out", "run"]
    errors = []
    for argv in (["evaluate", *point], ["simulate", *point, "--rounds", "1000"]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        assert sorted(os.listdir(".")) == ["bad.json"]
    assert errors[0] == errors[1] == (
        f"error: policy assigns infeasible action wait at reachable state {boundary}\n"
    )
    assert main(["render", "--policy", "bad.json", "--t-view", "5"]) == 0
    row5 = capsys.readouterr().out.strip().split("\n")[-1].split("|")[1].split()
    assert row5[0][0] == "w"


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

    def test_eps_below_round_off_is_numeric_failure(self, workdir, capsys):
        """At gamma = 0.5 the first exhibit candidate is 1/4, where selfish
        and honest mining earn the same, so the optimal gain at rho = 1/4 +
        eps is zero up to round-off.  Policy iteration toward a tolerance
        below it would alternate between tied policies without end: it stops
        at the first repeat, exit 3."""
        rc = main(
            ["threshold", "--gamma", "0.5", "--T", "8", "--eps", "1e-300",
             "--alpha-tol", "0.1", "--out", "thr"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: policy iteration stalled") and err.count("\n") == 1
        assert os.listdir(workdir) == []

    def test_eps_below_round_off_decided_by_bracket(self, workdir, capsys):
        """At gamma = 1 every candidate is profitable, and the exhibit's
        bracket decides the first one well before the span narrows to the
        tolerance: exit 0 with a valid bracket."""
        rc = main(
            ["threshold", "--gamma", "1", "--T", "8", "--eps", "1e-300",
             "--alpha-tol", "0.1", "--out", "thr"]
        )
        assert rc == 0
        report = read_json("thr.threshold.json")
        assert (report["alpha_lower"], report["alpha_upper"]) == (0.0, 0.0625)
        assert report["exhibited"]
        assert report["probes"][-1]["kind"] == "profitable"
        assert report["probes"][-1]["evidence"] > report["alpha_upper"]

    def test_exhibit_rho_stays_a_revenue(self, workdir, capsys):
        """With eps = 0.7 no probe certifies, and the exhibit step skips
        every candidate from which rho = candidate + eps would reach 1, and
        probes no candidate twice: exit 0, nothing exhibited."""
        rc = main(["threshold", "--gamma", "0.5", "--T", "8", "--eps", "0.7",
                   "--out", "thr"])
        assert rc == 0
        report = read_json("thr.threshold.json")
        assert (report["alpha_lower"], report["alpha_upper"]) == (0.0, 0.5)
        assert not report["exhibited"]
        exhibits = [p["alpha"] for p in report["probes"] if "profitable" in p["kind"]]
        assert exhibits and len(set(exhibits)) == len(exhibits)
        assert all(alpha + 0.7 < 1.0 for alpha in exhibits)

    @pytest.mark.parametrize("tol", ["0.5", "0.7"])
    def test_alpha_tol_checked(self, workdir, capsys, tol):
        rc = main(
            ["threshold", "--gamma", "0.5", "--T", "10", "--eps", "1e-3",
             "--alpha-tol", tol, "--out", "thr"]
        )
        assert rc == 2
        assert "alpha_tol" in capsys.readouterr().err
        assert not os.path.exists("thr.threshold.json")

    @pytest.mark.parametrize("eps", ["nan", "0", "-1"])
    def test_eps_checked_before_solving(self, workdir, capsys, monkeypatch, eps):
        def no_build(*args, **kwargs):
            raise AssertionError("a model was built before eps was checked")

        monkeypatch.setattr(optimize, "build_base_model", no_build)
        rc = main(
            ["threshold", "--gamma", "0.5", "--T", "20", "--eps", eps, "--out", "thr"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "eps" in err and "alpha" not in err
        assert not os.path.exists("thr.threshold.json")


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
        assert main(["sweep", "--alphas", "nan", "--gammas", "0"]) == 2
        assert not os.path.exists("sweep.csv")

    @pytest.mark.parametrize("T", ["1", "20000"])
    def test_truncation_checked(self, workdir, capsys, monkeypatch, T):
        # T=20000 is past the memory estimate of the 8 GiB patched in
        monkeypatch.setattr(model, "physical_memory", lambda: 8 * 2**30)
        rc = main(["sweep", "--alphas", "0.3", "--gammas", "0", "--T", T])
        assert rc == 2
        assert "truncation" in capsys.readouterr().err
        assert not os.path.exists("sweep.csv")

    @pytest.mark.parametrize("gammas", ["2", "0,-0.1", "nan"])
    def test_gamma_range_checked(self, workdir, capsys, gammas):
        rc = main(["sweep", "--alphas", "0.3", "--gammas", gammas, "--T", "5"])
        assert rc == 2
        assert "gamma must be in [0, 1]" in capsys.readouterr().err
        assert not os.path.exists("sweep.csv")

    def test_point_errors_stay_in_row(self, workdir, capsys):
        rc = main(["sweep", "--alphas", "0.1", "--gammas", "0", "--T", "5", "--eps", "1"])
        assert rc == 0
        with open("sweep.csv") as handle:
            row = handle.read().strip().split("\n")[1]
        assert row.endswith("nan,nan,nan")
        assert "8*alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alphas,gammas,cpus,expected",
        [
            ("0.3", "0", 8, None),  # one point runs in process
            ("0.3,0.35", "0", 8, 2),
            ("0.3,0.35", "0,0.5,1", 3, 3),
        ],
    )
    def test_workers_capped(
        self, workdir, capsys, monkeypatch, alphas, gammas, cpus, expected
    ):
        """``--jobs`` is a cap, not a count: the pool gets no more workers
        than there are points or CPUs.  The recorder stands in for the pool
        and runs each task inline, so no process is started."""
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                task = optimize.futures.Future()
                task.set_result(fn(*args))
                return task

        monkeypatch.setattr(optimize.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = ["sweep", "--alphas", alphas, "--gammas", gammas, "--T", "5",
                "--eps", "1e-3", "--eps-prime", "1e-3"]
        assert main([*args, "--out", "serial.csv"]) == 0
        assert not started
        assert main([*args, "--jobs", "100000"]) == 0
        assert started == ([] if expected is None else [expected])
        with open("serial.csv") as serial, open("sweep.csv") as pooled:
            assert pooled.read() == serial.read()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--eps", "nan"], "eps must satisfy"),
            (["--eps-prime", "nan"], "eps_prime must be in (0, 1)"),
            (["--jobs", "0"], "jobs must be >= 1"),
        ],
    )
    def test_input_checked_before_solving(self, workdir, capsys, flags, message):
        rc = main(["sweep", "--alphas", "0.3", "--gammas", "0", "--T", "5", *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists("sweep.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--alpha", "0.3", "--gamma", "0", "--out", "run"],
        ["evaluate", "--alpha", "0.3", "--gamma", "0", "--policy", "sm1",
         "--out", "run"],
        ["simulate", "--alpha", "0.3", "--gamma", "0", "--policy", "sm1",
         "--rounds", "100", "--out", "run"],
        ["threshold", "--gamma", "0", "--out", "run"],
        ["sweep", "--alphas", "0.3", "--gammas", "0", "--out", "run.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_truncation_past_memory_exits_2(workdir, capsys, monkeypatch, argv):
    """With physical memory patched down to room for T=4, a T=8 run is
    refused by the memory estimate: one error line, exit 2, no file."""
    room = 3 * 5**2 * model.BYTES_PER_STATE
    monkeypatch.setattr(model, "physical_memory", lambda: room)
    assert main([*argv, "--T", "8"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "truncation must be" in err
    assert "<= 4 (got 8)" in err or "[2, 4] (got 8)" in err
    assert os.listdir(".") == []


SMALL_SOLVE = ["--T", "5", "--eps", "1e-3", "--eps-prime", "1e-3"]


@pytest.mark.parametrize(
    "argv,directory,named",
    [
        (["evaluate", "--alpha", "0.3", "--gamma", "0", "--T", "5",
          "--policy", "adir", "--out", "run"], "adir", "'adir'"),
        (["render", "--policy", "adir", "--out", "run"], "adir", "'adir'"),
        (["sweep", "--alphas", "0.3", "--gammas", "0", *SMALL_SOLVE, "--out", ""],
         "adir", "''"),
        (["sweep", "--alphas", "0.3", "--gammas", "0", *SMALL_SOLVE, "--out", "adir"],
         "adir", "'adir'"),
        (["optimize", "--alpha", "0.3", "--gamma", "0", *SMALL_SOLVE,
          "--out", "missing/x"], "adir", "'missing/x.bounds.json'"),
        (["optimize", "--alpha", "0.3", "--gamma", "0", *SMALL_SOLVE,
          "--out", "run"], "run.manifest.json", "'run.manifest.json'"),
        (["threshold", "--gamma", "0.5", "--T", "5", "--out", "missing/x"], "adir",
         "'missing/x.threshold.json'"),
        (["threshold", "--gamma", "0.5", "--T", "5", "--out", "run"],
         "run.threshold.json", "'run.threshold.json'"),
    ],
    ids=["evaluate-dir", "render-dir", "sweep-empty", "sweep-dir", "optimize-missing",
         "optimize-manifest-dir", "threshold-missing", "threshold-dir"],
)
def test_refused_path_exits_2(tmp_path, monkeypatch, capsys, argv, directory, named):
    """An unreadable --policy or an unwritable --out exits 2 with one error
    line naming the path, before any solve.  No data file, manifest or
    temporary file is left in the working directory or its parent, even
    when only the manifest, written last, is refused."""
    work = tmp_path / "work"
    (work / directory).mkdir(parents=True)
    monkeypatch.chdir(work)

    solved = []

    def no_solve(*_args, **_kwargs):  # sweep keeps a point's failure in its row
        solved.append(True)
        raise AssertionError("solved before refusing the path")

    monkeypatch.setattr(mdp, "solve_average_reward", no_solve)
    monkeypatch.setattr(optimize, "solve_average_reward", no_solve)
    assert main(argv) == 2
    assert not solved
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert os.listdir(tmp_path) == ["work"]
    assert os.listdir(work) == [directory] and os.listdir(work / directory) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_files_honour_umask(workdir, capsys, umask, mode):
    """Data files and the manifest get the permissions the umask leaves of
    0666, as files the shell creates do."""
    saved = os.umask(umask)
    try:
        argv = ["delay", "--alpha", "0.3", "--lambda", "1", "--rho", "0.3", "--out", "d"]
        assert main(argv) == 0
    finally:
        os.umask(saved)
    for name in ("d.delay.json", "d.manifest.json"):
        assert stat.S_IMODE(os.stat(name).st_mode) == mode, name


class TestDelayCommand:
    def test_output_unchanged(self, workdir, capsys):
        """stdout and data file of one fixed argument set, byte for byte."""
        rc = main(
            ["delay", "--alpha", "0.3", "--lambda", "2.5", "--d-ah", "0.4",
             "--d-ha", "0.1", "--rho", "0.35", "--out", "d"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            '{"gain_at_min_k": 0.025175817710657578, "min_k": 9,'
            ' "q": 0.037517581771065754}\n'
        )
        with open("d.delay.json", "rb") as handle:
            assert handle.read() == (
                b'{\n  "gain_at_min_k": 0.025175817710657578,\n  "min_k": 9,\n'
                b'  "q": 0.037517581771065754\n}\n'
            )

    def test_json_payload(self, workdir, capsys):
        rc = main(
            ["delay", "--alpha", "0.3", "--lambda", "1", "--d-ah", "0",
             "--d-ha", "0", "--rho", "0.3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload == {"q": 0.09, "min_k": 3, "gain_at_min_k": pytest.approx(0.06)}

    def test_subnormal_catchup_has_no_min_k(self, workdir, capsys):
        """A catch-up probability so small that rho/q overflows reports no
        profitable k instead of failing."""
        rc = main(["delay", "--alpha", "1e-160", "--lambda", "1", "--rho", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["min_k"] is None and payload["gain_at_min_k"] is None

    def test_rho_validation(self, workdir, capsys):
        rc = main(["delay", "--alpha", "0.3", "--lambda", "1", "--rho", "1.5"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--lambda", "nan"], "lambda must be > 0"),
            (["--lambda", "inf", "--d-ah", "1"], "lambda must be > 0"),
            (["--lambda", "1", "--d-ha", "nan"], "delays must be >= 0"),
        ],
    )
    def test_non_finite_input_exits_2(self, workdir, capsys, flags, message):
        rc = main(["delay", "--alpha", "0.3", "--rho", "0.3", *flags])
        assert rc == 2
        assert message in capsys.readouterr().err


# Values a flag is tried with besides its valid ones: non-finite, zero,
# negative, below round-off, non-numeric and empty, and some of its own.
ODD_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "x", ""]
OWN_ODD_VALUES = {
    "--T": ["1", "100000"],  # 100000 is past the patched memory
    "--policy": ["missing.json", "DIR"],
    "--t-view": ["9"],
    "--alphas": ["0.3,nan", ",", "0.6"],
    "--gammas": ["2", "0,-1"],
}
ALPHAS, GAMMAS = ["0.3", "0.45"], ["0", "0.5", "1"]
VARIANTS = ["standard", "uniform"]
TRUNCATIONS = ["2", "5", "8"]
POLICIES = ["sm1", "honest", "POLICY"]
# Per subcommand, each flag's valid values.  Required flags and the flags
# that size resources (--T, --rounds, --k-cap) are always given, so that no
# default beyond T = 8 or 10**4 rounds is used; --replicas and --jobs
# default to 1, and --jobs is never above 1.
CONTRACT_FLAGS = {
    "optimize": {
        "--alpha": ALPHAS, "--gamma": GAMMAS, "--variant": VARIANTS,
        "--T": TRUNCATIONS, "--eps": ["1e-3", "1e-5"], "--eps-prime": ["1e-3"],
    },
    "evaluate": {
        "--alpha": ALPHAS, "--gamma": GAMMAS, "--variant": VARIANTS,
        "--T": TRUNCATIONS, "--policy": POLICIES,
    },
    "simulate": {
        "--alpha": ALPHAS, "--gamma": GAMMAS, "--variant": VARIANTS,
        "--T": TRUNCATIONS, "--policy": POLICIES, "--rounds": ["1", "100", "10000"],
        "--seed": ["0", "7"], "--replicas": ["1", "4"], "--seed-stride": ["1", "3"],
    },
    "render": {"--policy": ["POLICY"], "--t-view": ["0", "4", "8"]},
    "threshold": {
        "--gamma": GAMMAS, "--variant": VARIANTS, "--T": TRUNCATIONS,
        "--eps": ["1e-3"], "--alpha-tol": ["1e-2", "0.1"],
    },
    "sweep": {
        "--alphas": ["0.3", "0.3,0.45"], "--gammas": ["0", "0,1"],
        "--variant": VARIANTS, "--T": TRUNCATIONS, "--eps": ["1e-3"],
        "--eps-prime": ["1e-3"], "--jobs": ["1"],
    },
    "delay": {
        "--alpha": ["0.3"], "--lambda": ["1", "2.5"], "--d-ah": ["0", "0.4"],
        "--d-ha": ["0", "0.1"], "--rho": ["0", "0.35", "1"],
        "--k-cap": ["1", "100"],
    },
}
ALWAYS_GIVEN = {
    "--alpha", "--gamma", "--policy", "--alphas", "--gammas", "--lambda", "--rho",
    "--T", "--rounds", "--k-cap",
}


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token} in {path}")

    with open(path) as handle:
        return json.loads(handle.read(), parse_constant=reject)


@pytest.mark.parametrize("subcommand", sorted(CONTRACT_FLAGS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_exit_contract(subcommand, data):
    """Any argument vector, up to two of its flags given odd values and
    --out a regular prefix, empty, a directory or under a missing directory:
    exit 0, 2 or 3 without a traceback, no data file after a failure, no
    temporary file left, strict JSON and well-formed CSV after a success.
    Run in process, in an empty working directory, with physical memory
    patched to room for T = 8, so that a larger T is refused before anything
    is allocated; no process is started (--jobs is 1)."""
    with tempfile.TemporaryDirectory() as root:
        policy_path = os.path.join(root, "policy.json")
        params = model.MiningParams(0.3, 0.0)
        with open(policy_path, "w") as handle:
            json.dump(model.builtin_policy("sm1", 8, params).to_json_dict(), handle)
        work = os.path.join(root, "work")
        directory = os.path.join(work, "adir")
        os.makedirs(directory)
        argv = ["--json-errors"] if data.draw(st.booleans(), "json errors") else []
        argv.append(subcommand)
        flags = CONTRACT_FLAGS[subcommand]
        odd = data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2), "odd")
        for flag, valid in flags.items():
            if flag in odd:
                valid = ODD_VALUES + OWN_ODD_VALUES.get(flag, [])
            values = st.sampled_from(valid)
            if flag not in ALWAYS_GIVEN:
                values = st.none() | values
            value = data.draw(values, flag)
            if value is not None:
                value = value.replace("POLICY", policy_path)
                argv.append(f"{flag}={value.replace('DIR', directory)}")
        if subcommand in ("evaluate", "simulate") and data.draw(st.booleans(), "force"):
            argv.append("--force")
        regular = os.path.join(work, "run.csv" if subcommand == "sweep" else "run")
        odd_outs = ["", directory, os.path.join(work, "missing", "x")]
        out = data.draw(st.just(regular) | st.sampled_from(odd_outs), "--out")
        argv.append(f"--out={out}")

        room = 3 * 9**2 * model.BYTES_PER_STATE
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        with mock.patch.object(model, "physical_memory", lambda: room):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses the vector
                    code = exc.code
                finally:
                    os.chdir(cwd)
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert os.listdir(directory) == [], argv
        assert sorted(os.listdir(root)) == ["policy.json", "work"], argv
        written = sorted(set(os.listdir(work)) - {"adir"})
        assert not any(name.startswith(".tmp-") for name in written), (argv, written)
        if code != 0:
            assert written == [], (argv, written)
            if "--json-errors" in argv and "error:" not in err:
                assert json.loads(err)["code"] == code
            return
        for name in written:
            path = os.path.join(work, name)
            if name.endswith(".json"):
                _strict_json(path)
            elif name.endswith(".csv"):
                with open(path, newline="") as handle:
                    rows = list(csv.reader(handle))
                assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}


@pytest.mark.parametrize("argv", [["optimize", "--alpha", "0.3"], ["threshold"]])
def test_exit_contract_past_memory(workdir, capsys, monkeypatch, argv):
    """The two commands whose first allocation is the transition table,
    given the --T that test_exit_contract's draws never pair with them:
    with memory patched to room for T = 8, T = 100000 is refused before
    anything is allocated, with exit 2, the truncation message, no traceback
    and no file."""
    room = 3 * 9**2 * model.BYTES_PER_STATE
    monkeypatch.setattr(model, "physical_memory", lambda: room)
    assert main([*argv, "--gamma", "0", "--T", "100000", "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert "truncation must be <= 8 (got 100000)" in err and "Traceback" not in err
    assert os.listdir(".") == []
