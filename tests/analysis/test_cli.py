"""End-to-end CLI behavior: exit codes, rule selection, the text report."""

import pytest

from repro.analysis.cli import main

BAD_SRC = "import numpy as np\n\n\ndef reseed():\n    np.random.seed(0)\n"
CLEAN_SRC = "import numpy as np\n\n\ndef draw(rng):\n    return rng.random()\n"


@pytest.fixture()
def tree(tmp_path):
    """A miniature repo: one dirty file under src/, one clean one."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(BAD_SRC)
    (pkg / "clean.py").write_text(CLEAN_SRC)
    return tmp_path


def run(tree, *extra):
    return main([str(tree / "src"), *extra])


def test_new_finding_exits_1(tree, capsys):
    assert run(tree) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out
    assert "numpy.random.seed" in out


def test_clean_tree_exits_0(tree, capsys):
    (tree / "src" / "repro" / "dirty.py").write_text(CLEAN_SRC)
    assert run(tree) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_select_restricts_rules(tree):
    assert run(tree, "--select", "RPR004") == 0
    assert run(tree, "--select", "RPR001") == 1


def test_usage_errors_exit_2(tree):
    with pytest.raises(SystemExit) as exc:
        run(tree, "--select", "RPR999")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([str(tree / "does-not-exist")])
    assert exc.value.code == 2


def test_syntax_error_exits_1(tree, capsys):
    (tree / "src" / "repro" / "dirty.py").write_text("def broken(:\n")
    assert run(tree) == 1
    assert "syntax error" in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("RPR")]
    assert sorted(listed) == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR008", "RPR010", "RPR011",
    ]


# ------------------------------------------------------------ graph pass


def test_stats_line_reports_graph(tree, capsys):
    assert run(tree, "--stats") == 1
    err = capsys.readouterr().err
    assert err.startswith("repro-lint stats: graph[") and "nodes=" in err


def test_select_graph_rule_only(tree):
    # Selecting only a graph rule disables RPR001, so the tree is clean.
    assert run(tree, "--select", "RPR008") == 0


def test_select_per_file_rules_skips_graph_pass(tree, capsys):
    assert run(tree, "--select", "RPR001", "--stats") == 1
    assert "graph[skipped]" in capsys.readouterr().err


def test_inline_suppressed_finding_exits_0(tree, capsys):
    # A suppression comment is the only way to accept a finding.
    (tree / "src" / "repro" / "dirty.py").write_text(
        BAD_SRC.replace(
            "np.random.seed(0)\n",
            "np.random.seed(0)  # repro-lint: disable=RPR001 fixture reseeds on purpose\n",
        )
    )
    assert run(tree) == 0
    assert "0 finding(s), 1 suppressed" in capsys.readouterr().out


def test_list_rules_includes_graph_families(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR008", "RPR010"):
        assert rule_id in out
