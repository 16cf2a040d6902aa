import json

import pytest

from edgesub import cli, oracle
from edgesub.cli import main
from edgesub.fileformat import dump_graph, dump_substituent
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _host_and_sub(tmp_path):
    host = _write(tmp_path, "host.json", dump_graph(cycle_host(5)))
    sub = _write(tmp_path, "sub.json", dump_substituent(chorded_square_substituent()))
    return host, sub


class TestSubcommands:
    def test_substitute(self, tmp_path, capsys):
        host, sub = _host_and_sub(tmp_path)
        assert main(["substitute", "--host", host, "--sub", sub]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["vertices"]) == 15
        assert len(doc["edges"]) == 25
        assert doc["vertexKind"]["x0"] == "host"

    def test_transfer(self, tmp_path, capsys):
        # the whole text: each function's reduction and its printed form
        _, sub = _host_and_sub(tmp_path)
        assert main(["transfer", "--sub", sub]) == 0
        assert capsys.readouterr().out == (
            "phi   = (-1 + -1 z + 3 z^2) / (1)\n"
            "psi   = (1/3) / (-1/3 + 1 z)\n"
            "theta = (1/3) / (-1/3 + 1 z)\n"
            "lambda0(V minus b) = 0.767591879244\n"
            "lambda0(interior)  = 0.333333333333\n"
        )
        path = _write(tmp_path, "path3.json", dump_substituent(path_substituent(3)))
        assert main(["transfer", "--sub", path]) == 0
        assert capsys.readouterr().out == (
            "phi   = (-3 z + 4 z^3) / (1)\n"
            "psi   = (1/4) / (-1/4 + 1 z^2)\n"
            "theta = (1/2 z) / (-1/4 + 1 z^2)\n"
            "lambda0(V minus b) = 0.866025403784\n"
            "lambda0(interior)  = 0.500000000000\n"
        )

    def test_classify(self, tmp_path, capsys):
        _, sub = _host_and_sub(tmp_path)
        assert main(["classify", "--sub", sub]) == 0
        out = capsys.readouterr().out
        assert "full operator Q:" in out
        assert "interior restriction:" in out
        assert "type II" in out and "type I" in out

    def test_spectrum_with_verify(self, tmp_path, capsys):
        host, sub = _host_and_sub(tmp_path)
        assert main(["spectrum", "--host", host, "--sub", sub, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "total = 15 / 15" in out
        assert "oracle agreement: ok" in out

    def test_verify_side_by_side(self, tmp_path, capsys):
        host, sub = _host_and_sub(tmp_path)
        assert main(["verify", "--host", host, "--sub", sub]) == 0
        out = capsys.readouterr().out
        assert "agreement: ok" in out

    @pytest.mark.parametrize("argv", [["verify"], ["spectrum", "--verify"]])
    def test_one_oracle_decomposition_per_command(self, tmp_path, capsys, monkeypatch, argv):
        calls = []

        def counted(sub):
            calls.append(sub)
            return oracle.direct_spectrum(sub)

        monkeypatch.setattr(cli, "direct_spectrum", counted)
        host, sub = _host_and_sub(tmp_path)
        assert main(argv + ["--host", host, "--sub", sub]) == 0
        assert len(calls) == 1

    def test_output_file(self, tmp_path):
        host, sub = _host_and_sub(tmp_path)
        out = tmp_path / "report.txt"
        assert main(["spectrum", "--host", host, "--sub", sub, "--out", str(out)]) == 0
        assert "spectrum-report" in out.read_text()

    def test_no_subcommand_takes_cluster_tol(self, tmp_path, capsys):
        host, sub = _host_and_sub(tmp_path)
        for argv in (
            ["substitute", "--host", host, "--sub", sub],
            ["transfer", "--sub", sub],
            ["classify", "--sub", sub],
            ["spectrum", "--host", host, "--sub", sub],
            ["verify", "--host", host, "--sub", sub],
            ["fixture", "--kind", "cycle-host"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--cluster-tol", "1e-8"])
            assert exc.value.code == 2


class TestFixtureCommand:
    def test_each_kind_round_trips(self, tmp_path, capsys):
        cases = [
            (["fixture", "--kind", "chorded-square"], "sub"),
            (["fixture", "--kind", "path-sub", "--L", "3"], "sub"),
            (["fixture", "--kind", "circle-antipodal", "--L", "2"], "sub"),
            (["fixture", "--kind", "circle-adjacent", "--L", "2"], "sub"),
            (["fixture", "--kind", "cycle-host", "--n", "4"], "host"),
            (["fixture", "--kind", "path-host", "--n", "4"], "host"),
            (["fixture", "--kind", "star-host", "--n", "4"], "host"),
            (["fixture", "--kind", "weighted-circle", "--N", "3", "--a", "1/2"], "host"),
        ]
        from edgesub.fileformat import load_graph, load_substituent

        for argv, kind in cases:
            assert main(argv) == 0
            text = capsys.readouterr().out
            if kind == "sub":
                load_substituent(text)
            else:
                load_graph(text)

    def test_fixture_feeds_spectrum(self, tmp_path, capsys):
        assert main(["fixture", "--kind", "cycle-host", "--n", "4",
                     "--out", str(tmp_path / "h.json")]) == 0
        assert main(["fixture", "--kind", "path-sub", "--L", "2",
                     "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert main([
            "spectrum", "--host", str(tmp_path / "h.json"),
            "--sub", str(tmp_path / "s.json"), "--verify",
        ]) == 0


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["transfer", "--sub", str(tmp_path / "nope.json")]) == 2
        assert "io error" in capsys.readouterr().err

    def test_malformed_input_is_validation_error(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.json", "{not json")
        assert main(["transfer", "--sub", bad]) == 3
        assert "validation error" in capsys.readouterr().err

    def test_invalid_substituent_is_validation_error(self, tmp_path, capsys):
        # gamma that is not a conductance-preserving swap
        doc = {
            "vertices": ["a", "u", "b"],
            "edges": [["a", "u", "1"], ["u", "b", "1/2"]],
            "a": "a",
            "b": "b",
            "gamma": [["a", "b"], ["b", "a"], ["u", "u"]],
        }
        bad = _write(tmp_path, "badsub.json", json.dumps(doc))
        assert main(["transfer", "--sub", bad]) == 3

    def test_non_list_fields_are_validation_errors(self, tmp_path, capsys):
        host, sub = _host_and_sub(tmp_path)
        for key, value in (("edges", 5), ("edges", None)):
            doc = json.loads(dump_graph(cycle_host(5)))
            doc[key] = value
            bad = _write(tmp_path, "badhost.json", json.dumps(doc))
            assert main(["spectrum", "--host", bad, "--sub", sub]) == 3
        doc = json.loads(dump_substituent(chorded_square_substituent()))
        doc["gamma"] = 7
        bad = _write(tmp_path, "badsub.json", json.dumps(doc))
        assert main(["transfer", "--sub", bad]) == 3
        assert "validation error" in capsys.readouterr().err

    def test_host_file_used_as_substituent(self, tmp_path, capsys):
        host = _write(tmp_path, "host.json", dump_graph(path_host(3)))
        assert main(["transfer", "--sub", host]) == 3

    def test_edgeless_host_is_validation_error(self, tmp_path, capsys):
        host = _write(tmp_path, "host.json", json.dumps({"vertices": ["x"], "edges": []}))
        sub = _write(tmp_path, "sub.json", dump_substituent(path_substituent(2)))
        assert main(["spectrum", "--host", host, "--sub", sub, "--verify"]) == 3
        assert main(["fixture", "--kind", "path-host", "--n", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["validation error: graph has no edges"] * 2

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["--kind", "path-sub", "--L", "1"], "need L >= 2"),
            (["--kind", "weighted-circle", "--N", "1"], "need N >= 2"),
            (["--kind", "weighted-circle", "--a", "2"], "need 0 <= a <= 1"),
            (["--kind", "weighted-circle", "--a", "x"], "'x'"),
        ],
        ids=["path-sub-L1", "weighted-circle-N1", "weighted-circle-a2", "weighted-circle-ax"],
    )
    def test_fixture_argument_out_of_range_is_usage_error(self, argv, problem, capsys):
        assert main(["fixture", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: fixture --kind {argv[1]}: ") and problem in err
