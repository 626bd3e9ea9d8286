import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmcut
from bmcut import cli


def run_cli(args, tmp_path=None):
    """Invoke main() in-process, capturing the exit code."""
    return cli.main(args)


class TestSolve:
    def test_gaussian_bcm_trace_monotone(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = run_cli(["solve", "--gen", "gaussian:n=40,seed=1",
                        "--method", "bcm", "--rule", "cyclic",
                        "--max-epochs", "200", "--seed", "3",
                        "--trace", str(trace)])
        assert code == 0
        lines = [json.loads(x) for x in trace.read_text().splitlines()]
        f = [x["f_raw"] for x in lines if x["type"] == "record"]
        assert all(b >= a for a, b in zip(f, f[1:]))
        out = capsys.readouterr().out
        assert "f_raw=" in out and "status=" in out

    def test_bcm2_triangle_edge_list(self, tmp_path, capsys):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        code = run_cli(["solve", "--edge-list", str(tri), "--method", "bcm2",
                        "--epsilon", "0.01", "--r", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        f_raw = float(out.split("f_raw=")[1].split()[0])
        assert f_raw >= 3.0 - 0.015  # n*eps/2 slack off the optimum 3

    def test_byte_identical_reruns(self, tmp_path):
        args = ["solve", "--gen", "er:n=30,edges=80,sign=-1,seed=5",
                "--method", "bcm", "--rule", "importance",
                "--max-epochs", "100", "--seed", "7"]
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(args + ["--trace", str(t1)]) == 0
        assert run_cli(args + ["--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--trace", str(c1)]) == 0
        assert run_cli(args + ["--trace", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_point_output_roundtrip(self, tmp_path):
        pt = tmp_path / "p.bin"
        code = run_cli(["solve", "--gen", "gaussian:n=12,seed=2",
                        "--method", "bcm", "--max-epochs", "50",
                        "--point-out", str(pt)])
        assert code == 0
        point = bmcut.load_point(str(pt))
        assert point.n == 12

    def test_point_output_csv(self, tmp_path):
        pt = tmp_path / "p.csv"
        assert run_cli(["solve", "--gen", "gaussian:n=12,seed=2",
                        "--max-epochs", "5", "--point-out", str(pt)]) == 0
        sigma = np.loadtxt(pt, delimiter=",")
        assert sigma.shape == (12, 5)
        assert np.array_equal(bmcut.load_point(str(pt)).sigma, sigma)

    @pytest.mark.parametrize("method", ["bcm", "bcm2"])
    def test_empty_instance_is_validation_error(self, tmp_path, method,
                                                capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# 0 nodes\n")
        assert run_cli(["solve", "--edge-list", str(empty),
                        "--method", method]) == 2
        assert "n = 0" in capsys.readouterr().err

    def test_missing_source_is_validation_error(self):
        assert run_cli(["solve", "--method", "bcm"]) == 2

    def test_two_sources_rejected(self, tmp_path):
        tri = tmp_path / "t.txt"
        tri.write_text("1 2 1.0\n")
        assert run_cli(["solve", "--gen", "gaussian:n=5,seed=0",
                        "--edge-list", str(tri)]) == 2

    def test_missing_file_is_io_error(self):
        assert run_cli(["solve", "--edge-list", "/nonexistent/x.txt"]) == 3

    def test_bad_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 x\n")
        assert run_cli(["solve", "--edge-list", str(bad)]) == 3

    def test_overflowing_norm_is_validation_error(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("1 2 1e308\n1 3 1e308\n")
        assert run_cli(["solve", "--edge-list", str(big), "--method", "bcm2",
                        "--epsilon", "0.1", "--r", "2"]) == 2

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_unnormal_square_norm_is_validation_error(self, tmp_path, capsys,
                                                      scale):
        # exit 0 with "converged" (1e-170, 1e-160) or an OverflowError
        # traceback (1e160) before
        inst = bmcut.preprocess(bmcut.gen_gaussian(6, seed=0).dense() * scale)
        mm = tmp_path / "scaled.mtx"
        bmcut.write_matrix_market(inst, str(mm))
        assert run_cli(["solve", "--mtx", str(mm), "--r", "3"]) == 2
        assert "rescale A" in capsys.readouterr().err

    def test_bad_gen_spec_is_validation_error(self):
        assert run_cli(["solve", "--gen", "gaussian:n=oops"]) == 2
        assert run_cli(["solve", "--gen", "wat:n=5"]) == 2

    def test_auto_epsilon_flag(self, capsys):
        # without --epsilon, bcm2 derives it from the dual bound at the start
        code = run_cli(["solve", "--gen", "er:n=12,edges=30,sign=-1,seed=6",
                        "--method", "bcm2", "--max-epochs", "100000"])
        assert code == 0
        assert "status=concave" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["bcm", "bcm2"])
    def test_rank_one_rejected(self, method, capsys):
        assert run_cli(["solve", "--gen", "gaussian:n=6,seed=0",
                        "--method", method, "--r", "1"]) == 2
        err = capsys.readouterr().err
        assert "the solvers need r >= 2, got r = 1" in err
        assert "allow-r1" not in err   # the message names no removed flag

    def test_removed_flags_rejected(self):
        for flag in ("--auto-epsilon", "--allow-r1", "--refresh-period=100",
                     "--no-reorth", "--escape-retries=1"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["solve", "--gen", "gaussian:n=6,seed=0", flag])
            assert exc.value.code == 2

    @pytest.mark.parametrize("eps", ["1e-200", "1e-160", "inf", "nan",
                                     "1e103", "1e150"])
    def test_bad_epsilon_is_validation_error(self, eps, capsys):
        assert run_cli(["solve", "--gen", "gaussian:n=6,seed=0",
                        "--method", "bcm2", "--epsilon", eps]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_infinite_grad_tol_is_validation_error(self, capsys):
        # accepted before: the run stopped at epoch 0 and the trace header
        # held "grad_tol": Infinity, which strict JSON parsers refuse
        assert run_cli(["solve", "--gen", "gaussian:n=6,seed=0",
                        "--grad-tol", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "grad_tol" in err

    def test_complex_matrix_market_is_parse_error(self, tmp_path, capsys):
        mm = tmp_path / "c.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate complex general\n"
                      "2 2 1\n1 2 1.0 5.0\n")
        assert run_cli(["solve", "--mtx", str(mm)]) == 3
        assert str(mm) in capsys.readouterr().err

    def test_zero_instance_graceful(self, tmp_path):
        mm = tmp_path / "z.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                      "3 3 0\n")
        assert run_cli(["solve", "--mtx", str(mm), "--method", "bcm2",
                        "--epsilon", "0.1", "--r", "2"]) == 0

    def test_timings_flag_changes_trace(self, tmp_path):
        base = ["solve", "--gen", "gaussian:n=10,seed=0", "--max-epochs", "20"]
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(base + ["--trace", str(t1)])
        run_cli(base + ["--trace", str(t2), "--timings"])
        rec1 = json.loads(t1.read_text().splitlines()[1])
        rec2 = json.loads(t2.read_text().splitlines()[1])
        assert "wall_time" not in rec1
        assert "wall_time" in rec2


class TestBench:
    def test_four_rules_wide_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--gen", "gaussian:n=25,seed=4",
                        "--rules", "cyclic,greedy,uniform,importance",
                        "--epochs", "40", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header_meta = [x for x in lines if x.startswith("#")]
        assert any("init_checksum=" in x for x in header_meta)
        assert any("instance_checksum=" in x for x in header_meta)
        data = [x for x in lines if not x.startswith("#")]
        cols = data[0].split(",")
        assert cols == ["epoch", "f_cyclic", "grad_cyclic", "f_greedy",
                        "grad_greedy", "f_uniform", "grad_uniform",
                        "f_importance", "grad_importance"]
        body = np.array([[float(v) for v in row.split(",")]
                         for row in data[1:]])
        assert body.shape[0] == 41
        for j in (1, 3, 5, 7):  # every f column is monotone
            assert np.all(np.diff(body[:, j]) >= 0)

    def test_rules_converge_to_common_value(self, tmp_path):
        # all four rules from one shared start settle on the same objective
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--gen", "gaussian:n=60,seed=8",
                        "--rules", "cyclic,greedy,uniform,importance",
                        "--epochs", "400", "--seed", "3", "--out", str(out)])
        assert code == 0
        data = [x for x in out.read_text().splitlines()
                if not x.startswith("#")]
        finals = np.array([float(v) for v in data[-1].split(",")])[1::2]
        spread = (finals.max() - finals.min()) / np.abs(finals).max()
        assert spread <= 1e-4

    def test_shared_initial_point(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_cli(["bench", "--gen", "gaussian:n=15,seed=1",
                 "--rules", "cyclic,greedy", "--epochs", "5",
                 "--seed", "9", "--out", str(out)])
        data = [x for x in out.read_text().splitlines()
                if not x.startswith("#")]
        first = data[1].split(",")
        # identical start: f at epoch 0 matches across methods
        assert first[1] == first[3]

    def test_no_rules_usage_error(self):
        assert run_cli(["bench", "--gen", "gaussian:n=10,seed=0",
                        "--rules", ""]) == 2
        assert run_cli(["bench", "--gen", "gaussian:n=10,seed=0"]) == 2

    @pytest.mark.parametrize("r", ["1", "0", "-1"])
    def test_rank_below_two_rejected(self, r):
        assert run_cli(["bench", "--gen", "gaussian:n=6,seed=0",
                        "--rules", "cyclic", "--r", r]) == 2

    def test_repeated_rule_rejected(self, capsys):
        # each rule used to be solved once per mention, its columns repeated
        assert run_cli(["bench", "--gen", "gaussian:n=10,seed=0",
                        "--rules", "cyclic,greedy,cyclic", "--epochs", "2"]) == 2
        captured = capsys.readouterr()
        assert "--rules names 'cyclic' twice" in captured.err
        assert captured.out == ""

    def test_empty_instance_is_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# 0 nodes\n")
        assert run_cli(["bench", "--edge-list", str(empty),
                        "--rules", "cyclic"]) == 2
        assert "n = 0" in capsys.readouterr().err

    def test_unknown_rule_rejected(self, capsys):
        assert run_cli(["bench", "--gen", "gaussian:n=10,seed=0",
                        "--rules", "cyclic,warp"]) == 2
        assert "unknown rule 'warp'" in capsys.readouterr().err


class TestCertify:
    def test_optimum_point_small_gap(self, tmp_path, capsys, triangle_optimum):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "opt.bin"
        bmcut.save_point(triangle_optimum, str(pt))
        code = run_cli(["certify", "--edge-list", str(tri),
                        "--point", str(pt), "--trials", "100", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        cert = json.loads(out[0])
        assert cert["gap"] <= 1e-6
        report = json.loads(out[1])
        assert report["ratio_vs_bound"] == pytest.approx(1.0, abs=1e-8)
        cut = json.loads(out[2])
        assert cut["value"] == 2.0

    def test_random_point_positive_gap(self, tmp_path, capsys):
        inst_file = tmp_path / "g.mtx"
        inst = bmcut.gen_gaussian(10, seed=3)
        bmcut.write_matrix_market(inst, str(inst_file))
        point = bmcut.random_point(10, 4, np.random.default_rng(0))
        pt = tmp_path / "p.csv"
        bmcut.save_point(point, str(pt))
        code = run_cli(["certify", "--mtx", str(inst_file), "--point", str(pt)])
        assert code == 0
        cert = json.loads(capsys.readouterr().out.splitlines()[0])
        assert cert["gap"] > 0

    def test_shape_mismatch_rejected(self, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "p.bin"
        bmcut.save_point(bmcut.random_point(5, 3, np.random.default_rng(0)),
                         str(pt))
        assert run_cli(["certify", "--edge-list", str(tri),
                        "--point", str(pt)]) == 2

    def test_negative_point_sizes_rejected(self, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "p.bin"
        pt.write_bytes(np.array([-1, -8], dtype="<i8").tobytes()
                       + np.zeros(8, dtype="<f8").tobytes())
        assert run_cli(["certify", "--edge-list", str(tri),
                        "--point", str(pt)]) == 2

    def test_nan_point_rejected(self, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "p.csv"
        pt.write_text("nan,0\n1,0\n0,1\n")
        assert run_cli(["certify", "--edge-list", str(tri),
                        "--point", str(pt)]) == 2

    @pytest.mark.parametrize("text", ["1,0\n0\n", "a,b\n"],
                             ids=["ragged", "non_numeric"])
    def test_malformed_csv_point_is_parse_error(self, tmp_path, capsys, text):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "bad.csv"
        pt.write_text(text)
        assert run_cli(["certify", "--edge-list", str(tri),
                        "--point", str(pt)]) == 3
        assert f"error: {pt}: " in capsys.readouterr().err

    def test_rank_one_point(self, tmp_path, capsys):
        # no flag: certificate and rounding, and no report (it needs r >= 2)
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "r1.csv"
        pt.write_text("1\n-1\n1\n")
        assert run_cli(["certify", "--edge-list", str(tri), "--point", str(pt),
                        "--trials", "10"]) == 0
        out = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert len(out) == 2
        assert "upper_bound" in out[0]
        assert out[1]["value"] == 2.0
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "--edge-list", str(tri), "--point", str(pt),
                     "--allow-r1"])
        assert exc.value.code == 2

    # --trials=-5 printed the certificate and the report before it failed
    @pytest.mark.parametrize("arg, rank1", [
        ("--epsilon=-5", False), ("--epsilon=nan", False),
        ("--epsilon=inf", False), ("--trials=-5", False),
        ("--epsilon=-1", True), ("--epsilon=nan", True),
        ("--epsilon=inf", True), ("--epsilon=1e308", False),
        ("--epsilon=1e308", True)],
        ids=["-5", "nan", "inf", "trials=-5", "rank1:-1", "rank1:nan",
             "rank1:inf", "1e308", "rank1:1e308"])
    def test_bad_epsilon_is_validation_error(self, tmp_path, capsys, arg,
                                             rank1, triangle_optimum):
        # a rank-1 point has no report to check epsilon
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "opt.bin"
        bmcut.save_point(bmcut.FactorPoint(np.ones((3, 1))) if rank1
                         else triangle_optimum, str(pt))
        assert run_cli(["certify", "--edge-list", str(tri), "--point", str(pt),
                        arg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        name, value = arg[2:].split("=")
        got = float(value) if name == "epsilon" else int(value)
        assert f"{name} must be" in out.err and f"got {got!r}" in out.err

    def test_one_eigensolve(self, tmp_path, capsys, monkeypatch):
        # the report computed a second dual bound for the same point
        pt = tmp_path / "p.bin"
        bmcut.save_point(bmcut.random_point(30, 4, np.random.default_rng(0)),
                         str(pt))
        calls = []
        real = bmcut.certify.leading_pair
        monkeypatch.setattr(bmcut.certify, "leading_pair",
                            lambda *a: calls.append(a) or real(*a))
        assert run_cli(["certify", "--gen", "gaussian:n=30,seed=1",
                        "--point", str(pt), "--epsilon", "0.01"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len(calls) == 1

    def test_empty_instance_is_validation_error(self, tmp_path, capsys):
        # IndexError from the eigensolve, exit 1
        empty = tmp_path / "empty.txt"
        empty.write_text("# 0 nodes\n")
        pt = tmp_path / "p.bin"
        bmcut.save_point(bmcut.FactorPoint(np.zeros((0, 3))), str(pt))
        assert run_cli(["certify", "--edge-list", str(empty),
                        "--point", str(pt)]) == 2
        assert "n = 0" in capsys.readouterr().err

    def test_reproducible_cut(self, tmp_path, capsys, triangle_optimum):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2 -1\n1 3 -1\n2 3 -1\n")
        pt = tmp_path / "opt.bin"
        bmcut.save_point(triangle_optimum, str(pt))
        args = ["certify", "--edge-list", str(tri), "--point", str(pt),
                "--trials", "1000", "--seed", "3"]
        run_cli(args)
        first = capsys.readouterr().out
        run_cli(args)
        second = capsys.readouterr().out
        assert first == second


class TestGen:
    def test_edge_list_roundtrip(self, tmp_path):
        out = tmp_path / "er.txt"
        code = run_cli(["gen", "--gen", "er:n=12,edges=20,sign=-1,seed=3",
                        "--out", str(out)])
        assert code == 0
        inst = bmcut.load_instance(str(out), "edge-list")
        ref = bmcut.gen_erdos_renyi(12, 20, -1, 3)
        assert np.allclose(inst.dense(), ref.dense())

    def test_mtx_roundtrip(self, tmp_path):
        out = tmp_path / "g.mtx"
        code = run_cli(["gen", "--gen", "gaussian:n=8,seed=5",
                        "--out", str(out)])
        assert code == 0
        inst = bmcut.load_instance(str(out), "matrix-market")
        ref = bmcut.gen_gaussian(8, 5)
        assert np.allclose(inst.dense(), ref.dense(), atol=1e-14)

    def test_mm_extension_is_matrix_market(self, tmp_path):
        # the file is written under the name given, not as g.mm.mtx
        out = tmp_path / "g.mm"
        assert run_cli(["gen", "--gen", "gaussian:n=8,seed=5",
                        "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["g.mm"]
        inst = bmcut.load_instance(str(out), "matrix-market")
        assert inst.checksum() == bmcut.gen_gaussian(8, 5).checksum()

    def test_format_flag_removed(self, tmp_path):
        # the extension of --out picks the format
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--gen", "gaussian:n=8,seed=5",
                     "--out", str(tmp_path / "g.txt"), "--format", "mtx"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("spec, key", [
        ("gaussian:n=6,sed=3", "sed"),
        ("gaussian:n=6,edges=5", "edges"),
        ("er:n=6,edges=5,sign=1,seeds=2", "seeds"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, spec, key):
        # the key was ignored and the default instance written, exit 0
        out = tmp_path / "g.txt"
        assert run_cli(["gen", "--gen", spec, "--out", str(out)]) == 2
        assert f"takes no key {key!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("entry", ["solve", "solve-bcm2", "bench", "certify",
                                   "SolverConfig", "EscapeConfig"])
def test_negative_seed_rejected(tmp_path, capsys, entry):
    # numpy's default_rng raised ValueError: a traceback and exit 1
    if entry.endswith("Config"):
        with pytest.raises(bmcut.ValidationError, match="got -1"):
            getattr(bmcut, entry)(seed=-1)
        return
    pt = tmp_path / "p.bin"
    bmcut.save_point(bmcut.random_point(6, 3, np.random.default_rng(0)), str(pt))
    extra = {"solve": [], "solve-bcm2": ["--method", "bcm2"],
             "bench": ["--rules", "cyclic"],
             "certify": ["--point", str(pt), "--trials", "3"]}[entry]
    argv = [entry.split("-")[0], "--gen", "gaussian:n=6,seed=0", *extra,
            "--seed", "-1"]
    assert run_cli(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_git_describe_ignores_working_directory(tmp_path, monkeypatch):
    # run from another checkout, it still describes bmcut's own source
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C",
           str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"],
                   check=True)
    other = subprocess.run(git + ["describe", "--always", "--dirty"],
                           capture_output=True, text=True, check=True)
    monkeypatch.chdir(tmp_path)
    assert cli._git_describe() != other.stdout.strip()


def test_solve_defaults_are_the_configs():
    args = cli.build_parser().parse_args(["solve", "--gen", "gaussian:n=4,seed=0"])
    solver, esc = bmcut.SolverConfig(), bmcut.EscapeConfig()
    assert (args.rule, args.max_epochs, args.grad_tol, args.seed) == (
        solver.rule, solver.max_epochs, solver.grad_tol, solver.seed)
    assert (args.epsilon, args.delta, args.seed) == (
        esc.epsilon, esc.delta, esc.seed)


def test_readme_cli_examples_parse():
    # a README example that names a removed or renamed flag fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = block.split("```", 2)[1].replace("\\\n", " ")
    commands = [line.split() for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert len(commands) == 6
    for words in commands:
        assert words[0] == "bmcut"
        cli.build_parser().parse_args(words[1:])


class TestEntryPoint:
    def test_module_invocation(self):
        # the subprocess imports the same bmcut as this test, wherever the
        # test run found it
        root = str(Path(bmcut.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bmcut.cli", "solve",
             "--gen", "gaussian:n=10,seed=0", "--max-epochs", "20"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "f_raw=" in proc.stdout
