"""CLI contract: subcommands, exit codes, report schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attngrad
from attngrad.cli import main
from attngrad.core import read_matrix
from attngrad.forward import AttentionInstance, load_instance, save_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dir(capsys, tmp_path, name="inst", n=12, d=2, B=0.8, seed=3, noise="0.1"):
    out = tmp_path / name
    code, _, _ = run_cli(capsys, "gen", "--n", str(n), "--d", str(d), "--B", str(B),
                         "--seed", str(seed), "--noise-sigma", noise, "--out", str(out))
    assert code == 0
    return out


def test_gen_writes_loadable_instance(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path)
    inst = load_instance(out)
    assert inst.n == 12 and inst.d == 2 and inst.B == 0.8
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 3 and meta["n"] == 12


def test_gen_deterministic_files(capsys, tmp_path):
    a = gen_dir(capsys, tmp_path, "a", seed=9)
    b = gen_dir(capsys, tmp_path, "b", seed=9)
    for name in ("A1", "A2", "A3", "E", "X", "Y"):
        assert (a / f"{name}.mat").read_bytes() == (b / f"{name}.mat").read_bytes()


def test_gen_zero_bound_zero_x(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "z", B=0.0)
    assert np.all(read_matrix(out / "X.mat") == 0.0)


def test_grad_exact_zero_for_noiseless(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "fit", noise="0")
    code, stdout, _ = run_cli(capsys, "grad", "--in", str(out), "--method", "exact")
    assert code == 0
    report = json.loads(stdout)
    assert report["method"] == "exact"
    assert max(abs(v) for v in report["g"]) == 0.0


def test_grad_fast_reports_ranks(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path)
    code, stdout, _ = run_cli(capsys, "grad", "--in", str(out), "--method", "fast",
                              "--eps", "1e-4")
    report = json.loads(stdout)
    assert code == 0
    assert report["k1"] >= 1
    assert report["degree"] >= 0 and len(report["g"]) == 4
    assert report["loss"] > 0.0


def test_grad_unknown_method_usage_error(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["grad", "--in", str(out), "--method", "bogus"])
    assert exc.value.code == 2


def test_verify_passes_on_small_instance(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, n=10, d=2)
    code, stdout, _ = run_cli(capsys, "verify", "--in", str(out), "--eps", "1e-4")
    report = json.loads(stdout)
    assert code == 0 and report["pass"]
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names == {"exact_vs_fd": "pass", "exact_vs_brute": "pass",
                     "fast_vs_exact": "pass"}


def test_verify_skips_brute_beyond_cap(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "big", n=24, d=2)
    code, stdout, _ = run_cli(capsys, "verify", "--in", str(out))
    report = json.loads(stdout)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["exact_vs_brute"] == "skipped"


def test_verify_failed_check_exits_one(capsys, tmp_path):
    # a finite-difference step this coarse misses the FD_TOL check
    out = gen_dir(capsys, tmp_path, n=10, d=2)
    code, stdout, _ = run_cli(capsys, "verify", "--in", str(out), "--step", "0.5")
    report = json.loads(stdout)
    assert code == 1 and report["pass"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["exact_vs_fd"] == "fail"


def test_verify_corrupted_input_exits_one(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "bad")
    path = out / "E.mat"
    lines = path.read_text().splitlines()
    lines[1] = "nan " + " ".join(lines[1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run_cli(capsys, "verify", "--in", str(out))
    assert code == 1
    assert "non-finite value" in stderr


def test_verify_meta_shape_mismatch_exits_one(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "meta", n=12, d=2)
    path = out / "meta.json"
    meta = json.loads(path.read_text())
    meta["n"] = 13
    path.write_text(json.dumps(meta))
    code, _, stderr = run_cli(capsys, "verify", "--in", str(out))
    assert code == 1
    assert "meta.json" in stderr
    assert "(13, 2)" in stderr and "(12, 2)" in stderr


def test_verify_meta_without_bound_exits_one(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "nob")
    path = out / "meta.json"
    meta = json.loads(path.read_text())
    del meta["B"]
    for bad in ({}, {"B": None}, {"B": "abc"}):    # missing, null, not a number
        path.write_text(json.dumps({**meta, **bad}))
        code, _, stderr = run_cli(capsys, "verify", "--in", str(out))
        assert code == 1
        assert "meta.json" in stderr and "'B'" in stderr
        assert not bad or f"got {bad['B']!r}" in stderr


@pytest.mark.parametrize("name, content, message", [
    ("meta.json", b"null", "expected a JSON object"),
    ("meta.json", b"5", "expected a JSON object"),
    ("meta.json", b"not json", "Expecting value: line 1 column 1"),
    ("A1.mat", b"\xff\xfe2 2\n", "not a text matrix file"),
])
def test_grad_broken_instance_file_names_it(capsys, tmp_path, name, content, message):
    out = gen_dir(capsys, tmp_path, "broken")
    (out / name).write_bytes(content)
    code, stdout, stderr = run_cli(capsys, "grad", "--in", str(out))
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"attngrad grad: error: {out / name}: ")
    assert message in stderr and "Traceback" not in stderr


def test_bench_report_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, stdout, _ = run_cli(capsys, "bench", "--sizes", "64,128", "--d", "2",
                              "--B", "0.5", "--eps", "1e-3", "--repeats", "2",
                              "--csv", str(csv_path))
    assert code == 0
    report = json.loads(stdout)
    methods = {r["method"]: r for r in report["reports"]}
    assert set(methods) == {"exact", "fast"}
    assert methods["fast"]["sizes"] == [64, 128]
    assert all(s > 0 for s in methods["exact"]["seconds"])
    assert all(e <= 1e-3 for e in methods["fast"]["max_err_vs_exact"])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,method,seconds,max_err"
    assert len(lines) == 1 + 2 * 2
    # errors are a pure function of (size, seed, eps): rerun reproduces them
    code, stdout, _ = run_cli(capsys, "bench", "--sizes", "64,128", "--d", "2",
                              "--B", "0.5", "--eps", "1e-3", "--repeats", "2")
    rerun = {r["method"]: r for r in json.loads(stdout)["reports"]}
    assert rerun["fast"]["max_err_vs_exact"] == methods["fast"]["max_err_vs_exact"]


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("argv", [
    ("--sizes", "64", "--repeats", "1"),
    ("--sizes", "16,32", "--d", "2", "--B", "20", "--eps", "1e-6", "--repeats", "1"),
], ids=["one-size", "fast-refused"])
def test_bench_report_is_strict_json(capsys, argv):
    code, stdout, _ = run_cli(capsys, "bench", *argv)
    assert code == 0
    fast = json.loads(stdout, parse_constant=_refuse_constant)["reports"][1]
    assert fast["method"] == "fast" and fast["fitted_loglog_slope"] is None


@pytest.mark.parametrize("argv", [
    ("grad", "--method", "exact"),
    ("grad", "--method", "fast"),
    ("grad", "--method", "fd"),
    ("grad", "--method", "brute"),
    ("verify",),
    ("hardness", "--n", "16", "--d", "2", "--m", "10", "--grid", "11"),
], ids=["grad-exact", "grad-fast", "grad-fd", "grad-brute", "verify", "hardness"])
def test_reports_are_strict_json(capsys, tmp_path, argv):
    if argv[0] != "hardness":
        argv += ("--in", str(gen_dir(capsys, tmp_path, n=8)))
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(stdout, parse_constant=_refuse_constant)["command"] == argv[0]


@pytest.mark.parametrize("argv, message", [
    (("gen", "--n", "0", "--d", "2", "--B", "0.5"), "n and d must be positive"),
    (("gen", "--n", "4", "--d", "0", "--B", "0.5"), "n and d must be positive"),
    (("bench", "--sizes", "0"), "n and d must be positive"),
    (("bench", "--sizes", ","), "sizes must name at least one n"),
    (("bench", "--sizes", "64,abc"), "--sizes must be comma-separated integers, got 'abc'"),
    (("hardness", "--grid", "0"), "grid_points must be at least 1"),
    (("grad", "--method", "fast", "--eps", "nan"), "eps must be positive, got nan"),
    (("grad", "--method", "fd", "--step", "nan"), "step must be positive, got nan"),
    (("verify", "--eps", "nan"), "eps must be positive, got nan"),
    (("bench", "--sizes", "64", "--eps", "0"), "eps must be positive, got 0.0"),
    (("bench", "--sizes", "64", "--eps", "nan"), "eps must be positive, got nan"),
    (("grad", "--method", "fast", "--eps", "inf"), "eps must be finite, got inf"),
    (("grad", "--method", "fd", "--step", "inf"), "step must be finite, got inf"),
    (("verify", "--eps", "inf"), "eps must be finite, got inf"),
    (("bench", "--sizes", "64", "--eps", "inf"), "eps must be finite, got inf"),
    (("gen", "--n", "4", "--d", "2", "--B", "nan"), "B must be finite, got nan"),
    (("gen", "--n", "4", "--d", "2", "--B", "inf"), "B must be finite, got inf"),
    (("hardness", "--B", "nan"), "B must be nonnegative and finite, got nan"),
    (("hardness", "--B", "inf"), "B must be nonnegative and finite, got inf"),
    (("hardness", "--B", "-1"), "B must be nonnegative and finite, got -1.0"),
    (("gen", "--n", "4", "--d", "2", "--B", "0.5", "--noise-sigma", "nan"),
     "noise_sigma must be finite, got nan"),
    (("gen", "--n", "4", "--d", "2", "--B", "0.5", "--noise-sigma", "inf"),
     "noise_sigma must be finite, got inf"),
], ids=["gen-n", "gen-d", "bench-size-0", "bench-no-sizes", "bench-size-text",
        "hardness-grid", "grad-fast-eps-nan", "grad-fd-step-nan", "verify-eps-nan",
        "bench-eps-0", "bench-eps-nan", "grad-fast-eps-inf", "grad-fd-step-inf",
        "verify-eps-inf", "bench-eps-inf", "gen-B-nan", "gen-B-inf", "hardness-B-nan",
        "hardness-B-inf", "hardness-B-negative", "gen-noise-nan", "gen-noise-inf"])
def test_empty_inputs_exit_one(capsys, tmp_path, argv, message):
    if argv[0] == "gen":
        argv += ("--out", str(tmp_path / "inst"))
    if argv[0] in ("grad", "verify"):
        argv += ("--in", str(gen_dir(capsys, tmp_path)))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert message in stderr


def test_fast_grad_past_the_float64_range_exits_one(capsys, tmp_path):
    # d = 1, B = 10: the fast path's target lies below float64 rounding;
    # the command must name the effective B instead of raising
    ones, tens = np.ones((4, 1)), np.full((4, 1), 10.0)
    save_instance(AttentionInstance(A1=tens, A2=tens, A3=ones, E=ones, X=[[1.0]],
                                    Y=[[1.0]], B=10.0), tmp_path / "inst")
    code, stdout, stderr = run_cli(capsys, "grad", "--in", str(tmp_path / "inst"),
                                   "--method", "fast", "--eps", "1e-2")
    assert code == 1 and stdout == ""
    assert stderr.startswith("attngrad grad: error: effective B=10 ")
    assert "Traceback" not in stderr


def test_bench_zero_repeats_exits_one(capsys):
    code, stdout, stderr = run_cli(capsys, "bench", "--sizes", "64", "--repeats", "0")
    assert code == 1 and stdout == ""
    assert "repeats must be at least 1" in stderr


def test_hardness_checks_pass(capsys):
    code, stdout, _ = run_cli(capsys, "hardness", "--n", "32", "--d", "3",
                              "--B", "1.5", "--m", "20", "--seed", "4")
    report = json.loads(stdout)
    assert code == 0 and report["pass"]
    assert report["derivative_bound"]["pass"]
    assert report["riemann"]["pass"]
    assert report["reduction_consistency"]["pass"]


def test_hardness_zero_bound(capsys):
    code, stdout, _ = run_cli(capsys, "hardness", "--n", "16", "--d", "2",
                              "--B", "0", "--m", "5")
    report = json.loads(stdout)
    assert code == 0
    assert report["riemann"]["t_m"] == 0.0


def test_threads_flag_smoke(capsys, tmp_path):
    out = gen_dir(capsys, tmp_path, "thr", n=8)
    code, stdout, _ = run_cli(capsys, "--threads", "1", "grad", "--in", str(out))
    assert code == 0
    assert json.loads(stdout)["method"] == "exact"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_threads_below_one_usage_error(capsys, tmp_path, count):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", count, "gen", "--n", "4", "--d", "2", "--B", "0.5",
              "--out", str(tmp_path / "inst")])
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


def test_threads_pinned_before_numpy_loads(tmp_path):
    # a fresh interpreter: importing the CLI must not load numpy, or
    # --threads would be set after the BLAS pools already started
    script = (
        "import os, sys\n"
        "from attngrad.cli import main\n"
        "assert 'numpy' not in sys.modules, 'import attngrad.cli loaded numpy'\n"
        "code = main(['--threads', '1', 'gen', '--n', '4', '--d', '2', '--B', '0.5',\n"
        f"             '--out', {str(tmp_path / 'inst')!r}])\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
        "sys.exit(code)\n"
    )
    src = str(Path(attngrad.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "gen"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
