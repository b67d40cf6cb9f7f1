import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from matchpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPolyAndFactor:
    def test_poly_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "builtin:P:7")
        assert code == 0
        assert out.strip() == "x^7 - 6*x^5 + 10*x^3 - 4*x"

    def test_poly_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "builtin:paper:T9", "--json")
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["poly"]["coeffs"] == [0, 5, 0, -18, 0, 20, 0, -8, 0, 1]

    def test_poly_from_file(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n":2,"edges":[[0,1]]}')
        code, out, _ = run(capsys, "poly", "--graph", str(f))
        assert code == 0 and out.strip() == "x^2 - 1"

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "--graph", "builtin:paper:T9")
        assert code == 0
        assert "(x - 1)^1" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "poly", "--graph", "/nonexistent/g.json")
        assert code == 2 and "error" in err

    def test_recurrence_budget_reported_as_error(self, capsys, tmp_path):
        rng = random.Random(1)
        edges = [[u, v] for u in range(22) for v in range(u + 1, 22) if rng.random() < 0.5]
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"n": 22, "edges": edges}))
        code, out, err = run(capsys, "poly", "--graph", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "subproblems" in err


class TestThetaResolution:
    def test_text_form(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--graph", "builtin:paper:T9", "--theta", "x - 1"
        )
        assert code == 0 and "A: ['v5']" in out

    def test_json_array_form(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--graph", "builtin:paper:T9", "--theta", "[-1, 1]"
        )
        assert code == 0 and "A: ['v5']" in out

    def test_factor_k_form(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--graph", "builtin:paper:T9", "--theta", "factor:1"
        )
        assert code == 0 and "A: ['v5']" in out

    def test_factor_k_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "partition", "--graph", "builtin:paper:T9", "--theta", "factor:9"
        )
        assert code == 2 and "out of range" in err

    def test_reducible_theta_rejected(self, capsys):
        code, _, err = run(
            capsys, "partition", "--graph", "builtin:paper:T9", "--theta", "x^2 - 1"
        )
        assert code == 2 and "irreducible" in err


class TestMalformedInput:
    """Malformed input is a usage error (exit 2), never a traceback (exit 1,
    the code for a violation)."""

    @pytest.mark.parametrize("theta", ["x^^2", "[1, true]", "factor:abc"])
    def test_bad_theta(self, capsys, theta):
        code, _, err = run(capsys, "partition", "--graph", "builtin:paper:T9", "--theta", theta)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            '{"n": 2, "edges": 5}',
            '{"n": 2, "edges": [[0, "a"]]}',
            '{"n": 2, "edges": [[0, 1.7]]}',
            '{"n": 2, "edges": [[false, true]]}',
            '{"n": 2, "edges": [[0, 1]], "labels": 5}',
            '{"n": 2, "edges": [[0, 1]], "labels": "ab"}',
            b'\xff\xfe{"n": 2}',
        ],
    )
    def test_bad_graph_file(self, capsys, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        code, _, err = run(capsys, "poly", "--graph", str(path))
        assert code == 2 and err.startswith("error:")


class TestCommands:
    def test_classify_one_vertex(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--graph", "builtin:paper:T9",
            "--theta", "x - 1", "--vertex", "v5",
        )
        assert code == 0
        assert "positive" in out and "special" in out

    def test_partition_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--graph", "builtin:paper:T9",
            "--theta", "x - 1", "--json",
        )
        data = json.loads(out)
        assert data["D"] == ["v6", "v7", "v8", "v9"]
        assert data["signs"]["v1"] == "neutral"

    def test_eigvec(self, capsys):
        code, out, _ = run(
            capsys, "eigvec", "--graph", "builtin:paper:T9", "--theta", "x - 1"
        )
        assert code == 0 and "support: ['v6', 'v7', 'v8', 'v9']" in out

    def test_cover(self, capsys):
        code, out, _ = run(capsys, "cover", "--graph", "builtin:paper:G14")
        assert code == 0 and "2 path(s)" in out

    def test_cover_with_extremality(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--graph", "builtin:star:4", "--theta", "[0, 1]"
        )
        assert code == 0 and "extremal" in out

    def test_certify_exit_codes(self, capsys):
        code, out, _ = run(capsys, "certify", "--graph", "builtin:paper:T9")
        assert code == 0 and "holds" in out
        code, out, _ = run(capsys, "certify", "--graph", "builtin:paper:G14")
        assert code == 1 and "FAILS" in out

    def test_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "t9.dot"
        code, _, _ = run(
            capsys, "poly", "--graph", "builtin:paper:T9", "--dot", str(dot)
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph G {") and "--" in text


def _prufer_tree_edges(seed: int, n: int) -> list:
    """The benchmark's seeded random tree, ``prufer_tree_edges(Random(seed), n)``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.prufer_tree_edges(random.Random(seed), n)


class TestCertifyLargeTrees:
    # 131,220 is the count that enumerating the covers gives at n = 60; at
    # n = 120 only the cover counts can finish.
    @pytest.mark.parametrize("n, checked", [(60, 131_220), (120, 107_616_802_500)])
    def test_seeded_prufer_tree(self, capsys, tmp_path, n, checked):
        graph = tmp_path / "tree.json"
        graph.write_text(json.dumps({"n": n, "edges": _prufer_tree_edges(0, n)}))
        code, out, _ = run(capsys, "certify", "--graph", str(graph), "--json")
        data = json.loads(out)
        assert code == 0 and data["biconditional_ok"] and data["violations"] == 0
        assert data["covers_checked"] == checked


class TestSweepCommand:
    def test_clean_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "stability", "--max-n", "5", "--jobs", "1")
        assert code == 0
        assert "all" in out and "passed" in out
        assert "sweep stability" in err

    def test_json_byte_identical_across_jobs(self, capsys):
        _, out1, _ = run(
            capsys, "sweep", "main-theorem", "--max-n", "6", "--jobs", "1", "--json"
        )
        _, out2, _ = run(
            capsys, "sweep", "main-theorem", "--max-n", "6", "--jobs", "2", "--json"
        )
        assert out1 == out2
        assert json.loads(out1)["schema"] == 1

    def test_bad_size_exit(self, capsys):
        code, _, err = run(capsys, "sweep", "gallai", "--max-n", "99")
        assert code == 2 and "error" in err

    def test_unknown_campaign_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "bogus", "--max-n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "paths", "--max-n", "5", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestDemos:
    def test_t9(self, capsys):
        code, out, _ = run(capsys, "demo", "t9")
        assert code == 0
        assert "x^9 - 8*x^7 + 20*x^5 - 18*x^3 + 5*x" in out
        assert "stable = True" in out
        assert "not special" in out

    def test_g14(self, capsys):
        code, out, _ = run(capsys, "demo", "g14")
        assert code == 0
        assert "biconditional FAILS" in out
        assert "sqrt(3) is not a root" in out


class TestModuleEntry:
    def test_python_dash_m_matches_main(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["poly", "--graph", "builtin:P:4"]
        proc = subprocess.run(
            [sys.executable, "-m", "matchpoly", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        code, out, _ = run(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out
