import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpotentials
from graphpotentials import cli
from graphpotentials.graphs import enumerate_trivalent, graph_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def validate_calls(monkeypatch):
    """The graphs passed to graphs.validate, wherever the library calls it."""
    from graphpotentials import graphs

    real = graphs.validate
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphpotentials") and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


class TestPotential:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "potential", "--graph", FIXTURES / "dumbbell.json")
        assert code == 0
        assert "v1: 2*a^-1 + a*b^-2 + a*b^2" in out
        assert out.strip().endswith("total: 4*a^-1 + a*b^-2 + a*c^-2 + a*c^2 + a*b^2")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "potential", "--graph", FIXTURES / "theta.json", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["variables"] == ["a", "b", "c"]
        assert doc["potential"]["terms"]["1,1,1"] == "2"
        assert set(doc["per_vertex"]) == {"v1", "v2"}

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "potential", "--graph", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_invalid_graph_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": "v", "color": 0}],
            "edges": [],
            "leaves": [],
        }))
        code, _, err = run(capsys, "potential", "--graph", bad)
        assert code == 2
        assert "degree" in err


class TestPeriod:
    def test_both_methods_text(self, capsys):
        code, out, _ = run(capsys, "period", "--graph", FIXTURES / "theta.json",
                           "--order", 6, "--method", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0 1"
        assert lines[4] == "4 384"

    def test_genus_parity_route(self, capsys):
        code, out, _ = run(capsys, "period", "--genus", 2, "--parity", 1,
                           "--order", 6, "--method", "tqft")
        assert code == 0
        assert out.strip().splitlines() == [
            "0 1", "1 0", "2 8", "3 0", "4 216", "5 0", "6 8000"]

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "period", "--graph", FIXTURES / "theta_colored.json",
                           "--order", 4, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fingerprint"] == "g2e1"
        assert doc["pi"] == [1, 0, 8, 0, 216]

    def test_method_disagreement_exits_3(self, capsys, monkeypatch):
        from graphpotentials import periods as periods_mod

        real = periods_mod.periods_of_graph

        def skewed(g, order, method="brute"):
            seq = real(g, order, method=method)
            if method == "tqft":
                pi = list(seq.pi)
                pi[-1] += 1
                return periods_mod.PeriodSequence(seq.order, tuple(pi),
                                                  seq.graph_fingerprint)
            return seq

        monkeypatch.setattr(periods_mod, "periods_of_graph", skewed)
        code, _, err = run(capsys, "period", "--graph", FIXTURES / "theta.json",
                           "--order", 4, "--method", "both")
        assert code == 3
        assert "verification failed" in err

    @pytest.mark.parametrize("argv", [
        ("period", "--method", "both"),
        ("period", "--method", "brute"),
        ("glue", "--leaf-a", "x", "--leaf-b", "y"),
    ], ids=lambda argv: " ".join(argv))
    def test_graph_validated_at_most_twice(self, argv, capsys, validate_calls):
        graph = "necklace_open_g1.json" if argv[0] == "glue" else "theta.json"
        code, _, _ = run(capsys, *argv, "--graph", FIXTURES / graph, "--order", 4)
        assert code == 0
        assert 1 <= len(validate_calls) <= 2

    @pytest.mark.parametrize("argv", [
        *(pytest.param(("period", "--order", 4, "--method", m), id=m)
          for m in ("both", "brute", "tqft")),
        pytest.param(("glue", "--leaf-a", "x", "--leaf-b", "y", "--order", 4), id="glue"),
        pytest.param(("mutate", "--edge", "a"), id="mutate"),
        pytest.param(("verify", "mutation"), id="verify mutation"),
        pytest.param(("grassmann", "--distinguished", "v=X"), id="grassmann"),
    ])
    def test_invalid_graph_message(self, argv, tmp_path, capsys):
        # the library validates the file's graph where it uses it; the CLI
        # reports it as every other command does, and no command's own
        # ValueError handling swallows the file name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": "v", "color": 0}],
            "edges": [],
            "leaves": [],
        }))
        _, _, expected = run(capsys, "potential", "--graph", bad)
        code, out, err = run(capsys, *argv, "--graph", bad)
        assert code == 2
        assert out == ""
        assert err == expected
        assert err.startswith(f"error: invalid graph in {bad}: ")

    @pytest.mark.parametrize("argv,graph,expected", [
        (("potential",), "theta.json", 1),
        (("glue", "--leaf-a", "x", "--leaf-b", "y", "--order", 4), "necklace_open_g1.json", 1),
        (("grassmann", "--distinguished", "v=X"), "tripod.json", 1),
        # the input alone: the moved graph is checked against it by the graph diff
        (("mutate", "--edge", "a"), "theta.json", 1),
    ], ids=["potential", "glue", "grassmann", "mutate"])
    def test_graph_validated_once_per_use(self, argv, graph, expected, capsys, validate_calls):
        code, _, _ = run(capsys, *argv, "--graph", FIXTURES / graph)
        assert code == 0
        assert len(validate_calls) == expected

    @pytest.mark.parametrize("extra", [("--genus", 3, "--parity", 0), ("--genus", 3),
                                       ("--parity", 1)], ids=["both", "genus", "parity"])
    def test_graph_with_genus_or_parity_refused(self, extra, capsys):
        # the graph fixes both; the theta graph would print its genus-2 periods
        code, out, err = run(capsys, "period", "--graph", FIXTURES / "theta.json", *extra,
                             "--order", 4, "--method", "brute")
        assert code == 2
        assert out == ""
        assert err == "error: --graph fixes the genus and parity: drop --genus and --parity\n"

    def test_requires_graph_or_genus(self, capsys):
        code, _, err = run(capsys, "period", "--order", 4)
        assert code == 2


class TestMutate:
    def test_certificate_document(self, capsys):
        code, out, _ = run(capsys, "mutate", "--graph", FIXTURES / "theta.json",
                           "--edge", "a")
        assert code == 0
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["edge"] == "a"
        assert cert["colored_case"] is False
        assert cert["mu"]["terms"] == {"-1,1": "2", "1,-1": "2"}
        assert cert["mu_prime"]["terms"] == {"0,0": "4"}
        assert "substitution" in cert
        # the rewired graph is part of the document and is a valid graph
        from graphpotentials.graphs import graph_from_json, validate

        assert validate(graph_from_json(doc["graph"])) == []

    def test_loop_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mutate", "--graph", FIXTURES / "dumbbell.json",
                           "--edge", "b")
        assert code == 2

    @pytest.mark.parametrize("argv", [("mutate",), ("verify", "mutation")],
                             ids=["mutate", "verify-mutation"])
    def test_missing_edge_is_named(self, argv, capsys):
        graph = FIXTURES / "theta.json"
        code, _, err = run(capsys, *argv, "--graph", graph, "--edge", "zz")
        assert code == 2
        assert err == f"error: no edge 'zz' in {graph}\n"


class TestVerify:
    def test_mutation_all_edges(self, capsys):
        code, out, _ = run(capsys, "verify", "mutation",
                           "--graph", FIXTURES / "theta.json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS edge ") for line in lines)

    def test_mutation_single_edge(self, capsys):
        code, out, _ = run(capsys, "verify", "mutation",
                           "--graph", FIXTURES / "dumbbell_colored.json", "--edge", "a")
        assert code == 0
        assert out.startswith("PASS edge a:")

    def test_coloring(self, capsys):
        code, out, _ = run(capsys, "verify", "coloring",
                           "--graph", FIXTURES / "theta.json")
        assert code == 0
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("what", ["coloring", "mutation"])
    def test_open_necklace_moves_keep_leaf_signs(self, what, capsys):
        code, out, _ = run(capsys, "verify", what,
                           "--graph", FIXTURES / "necklace_open_g1.json")
        assert code == 0
        assert out.count("PASS") == 2

    def test_corrupted_check_exits_3(self, capsys, monkeypatch):
        from graphpotentials import mutation as mutation_mod

        monkeypatch.setattr(mutation_mod, "mutation_report",
                            lambda bundle, edge: {"product_identity": False})
        code, out, err = run(capsys, "verify", "mutation",
                             "--graph", FIXTURES / "theta.json", "--edge", "a")
        assert code == 3
        assert "FAIL" in out


class TestTable:
    def test_exact_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--genus-max", 3, "--order", 4)
        assert code == 0
        assert out == ("k,g2e0,g2e1,g3e0,g3e1\n"
                       "0,1,1,1,1\n"
                       "1,0,0,0,0\n"
                       "2,0,8,0,0\n"
                       "3,0,0,0,0\n"
                       "4,384,216,576,384\n")


class TestKernel:
    def test_nonzero_entries(self, capsys):
        code, out, _ = run(capsys, "kernel", "--order", 4)
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 4
        entries = doc["entries"]
        assert entries["0,0"] == ["1", "0", "0", "0", "6"]
        assert entries["2,2"] == ["0", "0", "0", "0", "3/2"]
        # odd mode sums never appear
        assert "1,0" not in entries


class TestGrassmann:
    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "grassmann", "--graph", FIXTURES / "tripod.json",
                           "--distinguished", "v=X")
        assert code == 0
        assert out.strip() == "X^-1*Y*Z + X*Y^-1*Z + X*Y*Z^-1"

    def test_missing_distinguished_slot(self, capsys):
        code, _, err = run(capsys, "grassmann", "--graph", FIXTURES / "tripod.json")
        assert code == 2

    def test_leaf_orientation_without_limit(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "tripod.json").read_text())
        doc["leaves"][1]["orientation"] = "in"  # leaf Y
        graph = tmp_path / "tripod_y_in.json"
        graph.write_text(json.dumps(doc))
        code, _, err = run(capsys, "grassmann", "--graph", graph, "--distinguished", "v=X")
        assert code == 2
        assert "negative tau power" in err

    @pytest.mark.parametrize("extra, message", [
        ("w=Y", "name no vertex: w"),
        ("v=Y", "names vertex 'v' twice"),
    ], ids=["unknown-vertex", "vertex-twice"])
    def test_bad_distinguished_entry(self, extra, message, capsys):
        code, _, err = run(capsys, "grassmann", "--graph", FIXTURES / "tripod.json",
                           "--distinguished", "v=X", "--distinguished", extra)
        assert code == 2
        assert message in err


class TestWdvv:
    def test_both_parities(self, capsys):
        code, out, _ = run(capsys, "wdvv", "--order", 4, "--parity", "both")
        assert code == 0
        assert out == ("PASS parity 0: four-point symmetry at order 4\n"
                       "PASS parity 1: four-point symmetry at order 4\n")


class TestGlue:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "glue", "--graph", FIXTURES / "necklace_open_g1.json",
                           "--leaf-a", "x", "--leaf-b", "y", "--order", 4)
        assert code == 0
        assert out.strip().splitlines() == [
            "t^0: 1:1", "t^1: 0", "t^2: 1:4", "t^3: 0", "t^4: 1:9"]

    def test_unknown_leaf(self, capsys):
        code, _, err = run(capsys, "glue", "--graph", FIXTURES / "necklace_open_g1.json",
                           "--leaf-a", "x", "--leaf-b", "zz", "--order", 4)
        assert code == 2


# the argv of every command that takes --order, less the --order itself
EVERY_ORDER_COMMAND = pytest.mark.parametrize("argv", [
    ("period", "--genus", 3, "--parity", 1),
    ("table", "--genus-max", 3),
    ("kernel",),
    ("wdvv",),
    ("glue", "--graph", FIXTURES / "necklace_open_g1.json", "--leaf-a", "x", "--leaf-b", "y"),
], ids=lambda argv: argv[0])


class TestUsageErrors:
    @staticmethod
    def refused(capsys, argv, *extra):
        """stdout and stderr of a command line that argparse refuses with exit 2."""
        with pytest.raises(SystemExit) as exc:
            cli.main([str(a) for a in argv + extra])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return out, err

    @EVERY_ORDER_COMMAND
    def test_negative_order_rejected(self, argv, capsys):
        _, err = self.refused(capsys, argv, "--order", -1)
        assert "argument --order: must be an integer >= 0" in err

    @EVERY_ORDER_COMMAND
    def test_order_above_limit_rejected(self, argv, capsys):
        out, err = self.refused(capsys, argv, "--order", cli.MAX_ORDER + 1)
        assert out == ""
        assert f"argument --order: must be <= {cli.MAX_ORDER}" in err

    def test_order_limit_accepted_and_stated(self, capsys):
        assert cli.MAX_ORDER >= 48  # above every order the tests and benchmark use (32)
        code, out, _ = run(capsys, "table", "--genus-max", 2, "--order", cli.MAX_ORDER)
        assert code == 0
        assert len(out.splitlines()) == cli.MAX_ORDER + 2
        with pytest.raises(SystemExit):
            cli.main(["kernel", "--help"])
        assert f"0 to {cli.MAX_ORDER}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("period", "--genus", cli.MAX_GENUS + 1, "--parity", 1, "--method", "tqft"),
        ("period", "--genus", 10 ** 12, "--parity", 0),
        ("table", "--genus-max", cli.MAX_GENUS + 1),
        ("table", "--genus-max", 10 ** 12),
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_genus_above_limit_refused(self, argv, capsys):
        out, err = self.refused(capsys, argv, "--order", 2)
        assert out == ""
        assert f"argument {argv[1]}: must be <= {cli.MAX_GENUS}" in err

    @pytest.mark.parametrize("argv", [
        ("period", "--genus", 1, "--parity", 1),
        ("table", "--genus-max", 1),
    ], ids=lambda argv: argv[0])
    def test_genus_below_two_refused(self, argv, capsys):
        out, err = self.refused(capsys, argv, "--order", 2)
        assert out == ""
        assert f"argument {argv[1]}: must be an integer >= 2" in err

    def test_genus_limit_accepted_and_stated(self, capsys):
        assert cli.MAX_GENUS >= 4 * 16  # above every genus the tests and benchmark use
        code, out, _ = run(capsys, "table", "--genus-max", cli.MAX_GENUS, "--order", 0)
        assert code == 0
        assert out.splitlines()[0].endswith(f"g{cli.MAX_GENUS}e1")
        code, out, _ = run(capsys, "period", "--genus", cli.MAX_GENUS, "--parity", 1,
                           "--order", 0, "--method", "tqft")
        assert code == 0
        for command in ("period", "table"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            assert f"2 to {cli.MAX_GENUS}" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        pytest.param(b"\xff\xfe{", id="not-utf8"),
        pytest.param(b"[" * 200000, id="nested-too-deep"),
        pytest.param(b'{"vertices": [{"id": "v", "color": ' + b"1" * 5000 + b"}]}",
                     id="integer-too-long"),
    ])
    @pytest.mark.parametrize("argv", [
        ("potential",),
        ("period", "--order", 4),
        ("mutate", "--edge", "a"),
        ("verify", "mutation"),
        ("verify", "coloring"),
        ("grassmann", "--distinguished", "v=X"),
        ("glue", "--leaf-a", "x", "--leaf-b", "y", "--order", 4),
    ], ids=["potential", "period", "mutate", "verify mutation", "verify coloring",
            "grassmann", "glue"])
    def test_unreadable_graph_file(self, argv, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, *argv, "--graph", bad)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad} is ")
        assert "Traceback" not in err

    def test_edge_with_three_ends(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "theta.json").read_text())
        doc["edges"][0]["ends"].append(doc["edges"][0]["ends"][0])
        bad = tmp_path / "three_ends.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "period", "--graph", bad, "--order", 4)
        assert code == 2
        assert "exactly two" in err

    @pytest.mark.parametrize("argv", [
        ("period", "--order", 4, "--method", "both"),
        ("mutate", "--edge", "7"),
    ], ids=["period", "mutate"])
    def test_ids_that_are_not_strings(self, argv, tmp_path, capsys):
        # read through str(), this was the theta graph: null and "None" named
        # one vertex, and mutate wrote the edge id 7 back as "7"
        doc = json.loads((FIXTURES / "theta.json").read_text())
        doc["vertices"][0]["id"] = None
        for e in doc["edges"]:
            e["ends"][0] = "None"
        doc["edges"][0]["id"] = 7
        bad = tmp_path / "ids.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--graph", bad)
        assert code == 2
        assert out == ""
        assert "vertex id must be a string, got None" in err


# one run of every command; the kernel commands are table, kernel and period
EVERY_COMMAND = [
    ("potential", "--graph", "theta.json", "--json"),
    ("period", "--graph", "theta.json", "--order", "6", "--method", "both"),
    ("period", "--genus", "4", "--parity", "1", "--order", "8", "--method", "tqft"),
    ("mutate", "--graph", "theta.json", "--edge", "a"),
    ("verify", "mutation", "--graph", "dumbbell.json"),
    ("verify", "coloring", "--graph", "dumbbell.json"),
    ("table", "--genus-max", "5", "--order", "8"),
    ("kernel", "--order", "6"),
    ("grassmann", "--graph", "tripod.json", "--distinguished", "v=X"),
    ("wdvv", "--order", "4"),
    ("glue", "--graph", "necklace_open_g1.json", "--leaf-a", "x", "--leaf-b", "y", "--order", "4"),
]


def _subprocess_env() -> dict:
    src = str(Path(graphpotentials.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_no_command_imports_numpy():
    # numpy serves the tests and the benchmark only: every command runs
    # without it, the kernel commands included, and reading a kernel's
    # `mats` view is what loads it
    assert {argv[0] for argv in EVERY_COMMAND} == set(
        cli.build_parser()._subparsers._group_actions[0].choices)
    argvs = [[str(FIXTURES / a) if a.endswith(".json") else a for a in argv] for argv in EVERY_COMMAND]
    code = ("import contextlib, io, sys\n"
            "from graphpotentials import cli, tqft\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n"
            "tqft.t1_kernel(4).mats\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


@pytest.mark.parametrize("argv,also_absent", [
    (("period", "--graph", "theta.json", "--order", "8", "--method", "tqft", "--json"), ()),
    (("table", "--genus-max", "4", "--order", "8"), ("graphpotentials.graphs",)),
    (("kernel", "--order", "4"), ("graphpotentials.graphs",)),
], ids=["period-tqft", "table", "kernel"])
def test_trace_formula_commands_load_only_what_they_run(argv, also_absent):
    # the kernel commands call no graph-potential code, and no record needs
    # dataclasses; `table` and `kernel` read no graph either
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code = ("import contextlib, io, json, sys\n"
            "from graphpotentials import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                                           capture_output=True, text=True, check=True).stdout))
    assert {"graphpotentials.periods", "graphpotentials.tqft"} <= loaded
    for name in ("dataclasses", "graphpotentials.algebra", "graphpotentials.potential",
                 "graphpotentials.mutation", *also_absent):
        assert name not in loaded


def test_reader_closing_the_pipe_early_ends_quietly():
    # the kernel at order 24 prints far more than a pipe holds, so the
    # command is still writing when its reader goes away
    proc = subprocess.Popen([sys.executable, "-m", "graphpotentials.cli", "kernel", "--order", "24"],
                            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_every_export_resolves():
    for name in graphpotentials.__all__:
        assert getattr(graphpotentials, name) is not None, name


# valid starting points: every genus-2 and genus-3 class and every fixture,
# open graphs and genus-0 graphs among them
BASE_DOCUMENTS = [graph_to_json(g) for g in enumerate_trivalent(2) + enumerate_trivalent(3)] + [
    json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


def _places(node):
    """(container, key) for every value below node, node's own keys first."""
    keys = range(len(node)) if isinstance(node, list) else list(node)
    out = [(node, k) for k in keys]
    for k in keys:
        if isinstance(node[k], (list, dict)):
            out += _places(node[k])
    return out


@st.composite
def graph_files(draw):
    """(document, argv) for one --graph command: a valid graph, its colors
    kept or drawn, then zero to two flaws, and arguments naming its ids."""
    command = draw(st.sampled_from(
        ("potential", "period", "mutate", "verify mutation", "verify coloring", "grassmann", "glue")))
    # half of the glue and grassmann cases start from a graph with leaves, where they can succeed
    open_only = command in ("glue", "grassmann") and draw(st.booleans())
    base = draw(st.sampled_from([d for d in BASE_DOCUMENTS if d["leaves"] or not open_only]))
    doc = copy.deepcopy(base)
    if draw(st.booleans()):
        for v in doc["vertices"]:
            v["color"] = draw(st.integers(0, 1))
    vertices = [v["id"] for v in base["vertices"]]
    edges = [e["id"] for e in base["edges"]]
    leaves = [x["id"] for x in base["leaves"]]
    for flaw in draw(st.lists(st.sampled_from(
            ("type", "delete", "endpoint", "degree", "orientation")), max_size=2)):
        if flaw == "type":  # any value anywhere, the document itself aside
            container, key = draw(st.sampled_from(_places(doc)))
            container[key] = draw(JSON_VALUES)
        elif flaw == "delete":
            container, key = draw(st.sampled_from(_places(doc)))
            del container[key]
        elif flaw == "endpoint" and isinstance(doc.get("edges"), list):
            doc["edges"].append({"id": "fresh", "ends": [draw(st.sampled_from(vertices)), "nowhere"]})
        elif flaw == "degree" and isinstance(doc.get("edges"), list):
            a, b = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2))
            doc["edges"].append({"id": "extra", "ends": [a, b]})
        elif flaw == "orientation" and isinstance(doc.get("leaves"), list):
            doc["leaves"].append({"id": "odd", "vertex": draw(st.sampled_from(vertices)),
                                  "orientation": draw(st.text(max_size=4))})
    ids = st.sampled_from(edges + leaves + ["a", "x"])
    order = st.integers(0, 4).map(str)
    if command == "potential":
        argv = ["potential"] + draw(st.sampled_from([[], ["--json"]]))
    elif command == "period":
        argv = ["period", "--order", draw(order),
                "--method", draw(st.sampled_from(("brute", "tqft", "both")))]
    elif command == "mutate":
        argv = ["mutate", f"--edge={draw(ids)}"]
    elif command == "verify mutation":
        argv = ["verify", "mutation"] + draw(st.sampled_from([[], [f"--edge={draw(ids)}"]]))
    elif command == "verify coloring":
        argv = ["verify", "coloring"]
    elif command == "grassmann":  # one incident slot per vertex succeeds on genus 0
        slots = {v: [e["id"] for e in base["edges"] if v in e["ends"]]
                 + [x["id"] for x in base["leaves"] if x["vertex"] == v] for v in vertices}
        argv = ["grassmann"] + [f"--distinguished={v}={draw(st.sampled_from(slots[v]))}"
                                for v in vertices]
    else:
        leaf_ids = st.sampled_from(leaves + ["x"])
        argv = ["glue", f"--leaf-a={draw(leaf_ids)}", f"--leaf-b={draw(leaf_ids)}", "--order", draw(order)]
    return doc, argv


@settings(max_examples=300, deadline=None)
@given(case=graph_files())
def test_graph_commands_exit_cleanly_on_any_document(case, tmp_path_factory):
    # the contract of main: exit 0, 2 or 3, and never an exception
    doc, argv = case
    path = tmp_path_factory.mktemp("doc") / "graph.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--graph", str(path)])
    assert code in (0, 2, 3)


GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text())


def test_printed_polynomials_match_golden(capsys):
    # stdout of `potential --json` on every fixture, of `mutate --edge` on
    # every non-loop edge, of a few `glue` and `wdvv` runs and of the kernel
    # commands `kernel`, `table` and `period --method tqft`, byte for byte:
    # a coefficient printed as True, 2.0 or Fraction(2, 1) shows up here
    for case in GOLDEN:
        argv = [FIXTURES / a if a.endswith(".json") else a for a in case["argv"]]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, case["stdout"]), case["argv"]
