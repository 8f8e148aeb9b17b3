import json
from pathlib import Path

import numpy as np
import pytest

from cauchygft import cli
from cauchygft.bench import read_csv
from cauchygft.cli import main


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3\n0 1 1.0\n1 2 1.0\n")
    return str(path)


class TestFactorizeCmd:
    def test_ba_verify_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(
            ["factorize", "--ba", "200", "2", "7", "--force-levels", "2",
             "--max-levels", "2", "--verify", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "verification ok" in text
        assert out.exists()

    def test_p3_spectrum_printed(self, p3_file, capsys):
        code = main(["factorize", p3_file, "--verify", "--print-spectrum"])
        assert code == 0
        text = capsys.readouterr().out
        assert "eigenvalues:" in text
        spectrum = text.split("eigenvalues:")[1].split()
        vals = sorted(float(v) for v in spectrum)
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-9)

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1 nope\n")
        code = main(["factorize", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_exit_two(self, capsys):
        assert main(["factorize"]) == 2

    @pytest.mark.parametrize(
        "command", [["factorize", "--ba", "20", "2", "0"], ["bench", "--mode", "nodes"]]
    )
    def test_threads_option_refused(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_verify_skipped_above_dense_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "DENSE_LIMIT", 30)
        code = main(["factorize", "--ba", "40", "2", "0", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping verification: n=40 > 30" in out
        assert "verification ok" not in out

    def test_dense_limit_option_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--ba", "20", "2", "0", "--verify", "--dense-limit", "3000"])
        assert exc.value.code == 2
        assert "--dense-limit" in capsys.readouterr().err

    def test_saved_plan_reuse(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        graph_path = tmp_path / "g.txt"
        code = main(
            ["partition", "--ba", "60", "2", "3", "--out", str(plan_path),
             "--graph-out", str(graph_path)]
        )
        assert code == 0
        code = main(
            ["factorize", str(graph_path), "--plan", str(plan_path), "--verify"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("drop_tree", "malformed plan"),
            ("short_leaf", "malformed plan"),
            ("version", "plan version 99"),
            ("cut_bytes", "not valid JSON"),
        ],
    )
    def test_bad_plan_file_exit_two(self, tmp_path, capsys, damage, message):
        plan_path = tmp_path / "plan.json"
        graph_path = tmp_path / "g.txt"
        assert main(
            ["partition", "--ba", "60", "2", "3", "--out", str(plan_path),
             "--graph-out", str(graph_path)]
        ) == 0
        text = plan_path.read_text()
        data = json.loads(text)
        if damage == "drop_tree":
            del data["tree"]
        elif damage == "short_leaf":
            data["leaves"][0] = data["leaves"][0][:-1]
        elif damage == "version":
            data["version"] = 99
        plan_path.write_text(text[: len(text) // 2] if damage == "cut_bytes"
                             else json.dumps(data))
        capsys.readouterr()
        code = main(["factorize", str(graph_path), "--plan", str(plan_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestBenchCmd:
    def test_nodes_mode_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--mode", "nodes", "--sizes", "60,120", "--repeats", "1",
             "--k", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,seed,method,time_s,max_err,config"
        records = read_csv(str(out))
        methods = {(r.n, r.method) for r in records}
        assert (60, "CF") in methods and (120, "ED") in methods
        assert all(r.time_s > 0 for r in records)

    def test_cut_mode(self, tmp_path):
        out = tmp_path / "cut.csv"
        code = main(
            ["bench", "--mode", "cut", "--cuts", "2,4", "--n", "120",
             "--repeats", "1", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        records = read_csv(str(out))
        assert {r.method for r in records} == {"CF", "PRE"}

    def test_empty_grid_exit_two(self, capsys):
        assert main(["bench", "--mode", "nodes", "--sizes", ""]) == 2

    def test_determinism_modulo_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["bench", "--mode", "nodes", "--sizes", "80", "--repeats", "1",
                  "--seed", "9", "--verify-max", "100", "--out", str(path)])
        ra, rb = read_csv(str(a)), read_csv(str(b))
        assert [(r.n, r.k, r.method, r.max_err) for r in ra] == [
            (r.n, r.k, r.method, r.max_err) for r in rb
        ]


class TestFilterCmd:
    def _factorize(self, tmp_path, p3_file):
        fpath = tmp_path / "fact.json"
        assert main(["factorize", p3_file, "--out", str(fpath)]) == 0
        return str(fpath)

    def test_unit_filter_identity(self, tmp_path, p3_file):
        fact = self._factorize(tmp_path, p3_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "unit"}))
        sig = tmp_path / "x.csv"
        x = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
        np.savetxt(sig, x, delimiter=",")
        out = tmp_path / "y.csv"
        code = main(
            ["filter", "--factorization", fact, "--config", str(cfg),
             "--signal", str(sig), "--out", str(out)]
        )
        assert code == 0
        y = np.loadtxt(out, delimiter=",")
        assert np.max(np.abs(y - x)) <= 1e-8

    def test_lambda_filter_matches_laplacian(self, tmp_path, p3_file):
        fact = self._factorize(tmp_path, p3_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "poly", "coefficients": [0.0, 1.0]}))
        sig = tmp_path / "x.csv"
        np.savetxt(sig, np.array([[1.0], [0.0], [0.0]]), delimiter=",")
        out = tmp_path / "y.csv"
        assert main(
            ["filter", "--factorization", fact, "--config", str(cfg),
             "--signal", str(sig), "--out", str(out)]
        ) == 0
        y = np.loadtxt(out, delimiter=",")
        assert np.max(np.abs(y - np.array([1.0, -1.0, 0.0]))) <= 1e-7

    def test_heat_filter_matches_expm(self, tmp_path, p3_file):
        import scipy.linalg

        from cauchygft.graph import build_laplacian, read_graph

        fact = self._factorize(tmp_path, p3_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "heat", "t": 1.0}))
        sig = tmp_path / "x.csv"
        np.savetxt(sig, np.array([[0.0], [1.0], [0.0]]), delimiter=",")
        out = tmp_path / "y.csv"
        assert main(
            ["filter", "--factorization", fact, "--config", str(cfg),
             "--signal", str(sig), "--out", str(out)]
        ) == 0
        y = np.loadtxt(out, delimiter=",")
        lap = build_laplacian(read_graph(p3_file)).dense()
        want = scipy.linalg.expm(-lap)[:, 1]
        assert np.max(np.abs(y - want)) <= 1e-7

    def test_dimension_mismatch_exit_two(self, tmp_path, p3_file, capsys):
        fact = self._factorize(tmp_path, p3_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "unit"}))
        sig = tmp_path / "x.csv"
        np.savetxt(sig, np.zeros((5, 1)), delimiter=",")
        code = main(
            ["filter", "--factorization", fact, "--config", str(cfg),
             "--signal", str(sig), "--out", str(tmp_path / "y.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("drop_key", "malformed transform file"),
            ("plan_hash", "plan_hash does not match"),
            ("version", "version 99"),
            ("cut_bytes", "error:"),
            ("short_zhat", "zhat has shape"),
            ("perm_length", "perm is not a permutation"),
            ("text_zhat", "malformed transform file"),
            ("short_level_lambdas", "level_lambdas"),
            ("origin_index", "origins has an index outside"),
        ],
    )
    def test_bad_transform_file_exit_two(self, tmp_path, p3_file, capsys, damage, message):
        fpath = Path(self._factorize(tmp_path, p3_file))
        text = fpath.read_text()
        data = json.loads(text)
        factor = data["history"][0]["steps"][0]["factor"]
        if damage == "drop_key":
            del factor["zhat"]
        elif damage == "plan_hash":
            data["plan_hash"] = "0" * 16
        elif damage == "version":
            data["version"] = 99
        elif damage == "short_zhat":
            factor["zhat"] = factor["zhat"][:-1]
        elif damage == "perm_length":
            rec = data["history"][0]
            rec["steps"][0]["perm"] = list(range(rec["stop"] - rec["start"] + 1))
        elif damage == "text_zhat":
            factor["zhat"][0] = "x"
        elif damage == "short_level_lambdas":
            node = str(data["history"][0]["node_id"])
            data["level_lambdas"][node] = data["level_lambdas"][node][:-1]
        elif damage == "origin_index":
            factor["solution"]["origins"][0] = 999
        if damage == "cut_bytes":
            fpath.write_text(text[: len(text) // 2])
        else:
            fpath.write_text(json.dumps(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "unit"}))
        sig = tmp_path / "x.csv"
        np.savetxt(sig, np.zeros((3, 1)), delimiter=",")
        capsys.readouterr()
        code = main(
            ["filter", "--factorization", str(fpath), "--config", str(cfg),
             "--signal", str(sig), "--out", str(tmp_path / "y.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({}, "filter config has no field 'kind'"),
            ({"K": 4}, "filter config has no field 'kind'"),
            ({"kind": "spline"}, "filter config has no field 'coefficients'"),
            ({"kind": "poly"}, "filter config has no field 'coefficients'"),
            ([{"kind": "unit"}], "filter config must be a JSON object, not list"),
            ({"kind": "cubic"}, "field 'kind' is 'cubic'"),
            ({"kind": "poly", "coefficients": 3}, "malformed filter config (TypeError"),
            ({"kind": "heat", "t": [1.0]}, "malformed filter config (TypeError"),
            ({"kind": "spline", "K": "4", "coefficients": [[1.0]]},
             "malformed filter config (TypeError"),
            ({"global": {"kind": "poly"}}, "global filter config has no field 'coefficients'"),
            ({"global": []}, "global filter config must be a JSON object"),
            ({"nodes": {"0": {}}}, "filter config of node 0 has no field 'kind'"),
            ({"nodes": [{"kind": "unit"}]}, "field 'nodes' must map node ids"),
        ],
    )
    def test_malformed_filter_config_exit_two(self, tmp_path, p3_file, capsys, config,
                                              message):
        fact = self._factorize(tmp_path, p3_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        sig = tmp_path / "x.csv"
        np.savetxt(sig, np.zeros((3, 1)), delimiter=",")
        capsys.readouterr()
        code = main(
            ["filter", "--factorization", fact, "--config", str(cfg),
             "--signal", str(sig), "--out", str(tmp_path / "y.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestSparsifyCmd:
    def test_report_and_bound(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        out = tmp_path / "g.txt"
        code = main(
            ["sparsify", "--ba", "200", "40", "3", "--force-levels", "1",
             "--max-levels", "1", "--sparsify", "0.5", "--verify-bound",
             "--out", str(out), "--report", str(report), "--seed", "3"]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["sparsified_edges"] < data["original_edges"]
        assert "bound" in data
        text = capsys.readouterr().out
        assert "quadratic-form ratios" in text

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUCHY_GFT_SEED", "11")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["partition", "--ba", "80", "2", "1", "--out", str(out)]
            ) == 0
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())
        assert json.loads(out1.read_text())["config"]["seed"] == 11
