import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from invforms.cli import main


def run(argv):
    return main(argv)


def write(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


A1 = {
    "n": 2,
    "torus_rank": 0,
    "finite_orders": [2],
    "weight_matrix": [[1, 1]],
}


def test_analyze_exit_codes(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    out = tmp_path / "report.json"
    assert run(["analyze", str(spec), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["smoothness"]["consolidated"] == "singular"
    assert report["surjectivity"]["1"]["verdict"] == "not_surjective"
    capsys.readouterr()


def test_analyze_single_form_degree(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    out = tmp_path / "report.json"
    assert run(["analyze", str(spec), "--form-degree", "1", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report["surjectivity"]) == ["1"]
    capsys.readouterr()


def test_analyze_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    try:
        run(["analyze", str(bad)])
        raised = False
    except SystemExit as exc:
        raised = exc.code == 1
    assert raised
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    m1 = tmp_path / "m1.json"
    write(m1, {"n": 2, "finite_orders": [1], "weight_matrix": [[1, 1]]})
    try:
        run(["analyze", str(m1)])
        raised = False
    except SystemExit as exc:
        raised = exc.code == 1
    assert raised


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_analyze_negative_form_degree_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    assert run(["analyze", str(spec), "--form-degree", "-1"]) == 1
    assert _one_error_line(capsys)


def test_zero_max_degree_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    assert run(["analyze", str(spec), "--max-degree", "0"]) == 1
    assert _one_error_line(capsys)
    assert run(["canonical", str(spec), "--max-degree", "0"]) == 1
    assert _one_error_line(capsys)


def test_max_degree_past_the_packed_limit_fails_at_once(corpus_dir, capsys):
    start = perf_counter()
    spec = str(corpus_dir / "z2_10.json")
    assert run(["analyze", spec, "--max-degree", "40000"]) == 2
    assert perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "packed" in err
    # the homology table checks the degree before listing its monomials
    start = perf_counter()
    spec = str(corpus_dir / "t_11m1.json")
    assert run(["euler", spec, "--degree", "40000"]) == 2
    assert perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "packed" in err


def test_euler_torus_index_is_one_based(tmp_path, capsys):
    spec = tmp_path / "t.json"
    write(spec, {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, 1]]})
    assert run(["euler", str(spec), "--degree", "2", "--torus-index", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --torus-index 0 outside 1..1\n"
    assert run(["euler", str(spec), "--degree", "2", "--torus-index", "1"]) == 0
    capsys.readouterr()


def test_analyze_inconclusive_exit(tmp_path, capsys):
    spec = tmp_path / "far.json"
    write(
        spec,
        {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, -5]]},
    )
    assert run(["analyze", str(spec), "--max-degree", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("row", [[-3, 1, -1, -3], [3, -3, 3, 2]])
def test_analyze_certified_smooth_torus_actions(tmp_path, capsys, row):
    # free monoids whose Hermite forms depend on the back-reduction order;
    # surjectivity stays inconclusive at the default bound, hence exit 2
    spec = tmp_path / "t.json"
    write(spec, {"n": 4, "torus_rank": 1, "finite_orders": [], "weight_matrix": [row]})
    out = tmp_path / "report.json"
    assert run(["analyze", str(spec), "--json", str(out)]) == 2
    smoothness = json.loads(out.read_text())["smoothness"]
    assert smoothness["monoid"] == "smooth"
    assert smoothness["agreement"]
    assert capsys.readouterr().err == ""


def test_report_byte_determinism(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run(["analyze", str(spec), "--json", str(out1)])
    run(["analyze", str(spec), "--json", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    capsys.readouterr()


def test_a1_golden_report(tmp_path, data_dir, capsys):
    from invforms.action import load_action
    from invforms.report import report_to_json, run_analysis, strip_timings

    spec = tmp_path / "a1.json"
    write(spec, A1)
    report = run_analysis(load_action(spec))
    got = report_to_json(strip_timings(report))
    want = (data_dir / "a1.golden.json").read_text(encoding="utf-8")
    assert got == want


def test_corpus_bundled_all_agree(corpus_dir, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    assert run(["corpus", str(corpus_dir), "--json", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["violations"] == []
    assert len(doc["instances"]) >= 20
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_corpus_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["corpus", str(empty)]) == 1
    capsys.readouterr()


def test_corpus_error_names_the_spec(tmp_path, capsys):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    write(cdir / "a1.json", A1)
    bad = cdir / "bad.json"
    write(bad, {"n": 2, "finite_orders": [0], "weight_matrix": [[1, 1]]})
    assert run(["corpus", str(cdir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: finite order m_1 = 0 must be at least 2" in err


def test_corpus_stops_at_the_first_failing_spec(monkeypatch, tmp_path, capsys):
    import invforms.cli

    analyzed = []
    run_analysis = invforms.cli.run_analysis

    def spy(action, **kwargs):
        analyzed.append(action)
        return run_analysis(action, **kwargs)

    monkeypatch.setattr(invforms.cli, "run_analysis", spy)
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    bad = cdir / "a_bad.json"
    write(bad, {"n": 2, "finite_orders": [0], "weight_matrix": [[1, 1]]})
    write(cdir / "b_good.json", A1)
    assert run(["corpus", str(cdir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.out == ""
    assert analyzed == []


def test_corpus_exit_code_follows_the_error(corpus_dir, tmp_path, capsys):
    # as in analyze: an engine error exits 2, a precondition 1, and a
    # spec that cannot be loaded 1
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    spec = cdir / "z2_10.json"
    spec.write_text((corpus_dir / "z2_10.json").read_text(), encoding="utf-8")
    argv = ["corpus", str(cdir)]
    assert run(argv + ["--max-degree", "40000"]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: degree 40000 does not fit a 16-bit packed "
        "coordinate; degrees stop at 32767\n"
    )
    assert run(argv + ["--max-degree", "0"]) == 1
    assert capsys.readouterr().err == (
        f"error: {spec}: bound must be at least 1, got 0\n"
    )
    spec.write_text("{", encoding="utf-8")
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: Expecting")


def test_corpus_inconclusive_instance(tmp_path, capsys):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    write(cdir / "a1.json", A1)
    write(
        cdir / "far.json",
        {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, -5]]},
    )
    assert run(["corpus", str(cdir), "--max-degree", "4"]) == 2
    capsys.readouterr()


def test_corpus_golden_roundtrip_and_corruption(tmp_path, capsys):
    from invforms.action import load_action
    from invforms.report import report_to_json, run_analysis, strip_timings

    cdir = tmp_path / "corpus"
    cdir.mkdir()
    spec = cdir / "a1.json"
    write(spec, A1)
    golden = cdir / "a1.golden.json"
    report = run_analysis(load_action(spec))
    golden.write_text(report_to_json(strip_timings(report)), encoding="utf-8")
    assert run(["corpus", str(cdir)]) == 0
    golden.write_text(
        golden.read_text(encoding="utf-8").replace("singular", "smoothish"),
        encoding="utf-8",
    )
    assert run(["corpus", str(cdir)]) == 3
    out = capsys.readouterr().out
    assert "GOLDEN MISMATCH" in out


def test_euler_command(tmp_path, capsys):
    spec = tmp_path / "t.json"
    write(spec, {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, 1]]})
    assert run(["euler", str(spec), "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "dims (4, 6, 2) homology (0, 0, 0)" in out
    assert run(["euler", str(spec), "--degree", "0"]) == 0
    out = capsys.readouterr().out
    assert "dims (1, 0, 0) homology (1, 0, 0)" in out
    assert run(["euler", str(spec), "--degree", "2", "--weight", "2"]) == 0
    capsys.readouterr()


def test_euler_command_errors(tmp_path, capsys):
    finite = tmp_path / "f.json"
    write(finite, A1)
    assert run(["euler", str(finite), "--degree", "2"]) == 1
    assert _one_error_line(capsys)
    mixed = tmp_path / "m.json"
    write(
        mixed,
        {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, -1]]},
    )
    assert run(["euler", str(mixed), "--degree", "2", "--point-quotient"]) == 1
    assert _one_error_line(capsys)
    # degree -1 has no weights, and the grading is still checked
    assert run(["euler", str(mixed), "--degree", "-1", "--point-quotient"]) == 1
    assert _one_error_line(capsys)


def test_euler_malformed_weight_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "t.json"
    write(spec, {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, 2]]})
    assert run(["euler", str(spec), "--degree", "2", "--weight", "a"]) == 1
    assert _one_error_line(capsys)


def test_canonical_command(tmp_path, capsys):
    spec = tmp_path / "z3.json"
    write(spec, {"n": 2, "finite_orders": [3], "weight_matrix": [[1, 1]]})
    assert run(["canonical", str(spec), "--max-degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "series match: True" in out
    refl = tmp_path / "z2r.json"
    write(refl, {"n": 2, "finite_orders": [2], "weight_matrix": [[1, 0]]})
    assert run(["canonical", str(refl)]) == 2
    capsys.readouterr()


def test_analyze_missing_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        run(["analyze", str(missing)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


def test_analyze_non_integer_form_degree_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    assert run(["analyze", str(spec), "--form-degree", "x"]) == 1
    assert capsys.readouterr().err == (
        "error: --form-degree must be an integer or 'all', got 'x'\n"
    )


def test_corpus_on_a_file_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "a1.json"
    write(spec, A1)
    assert run(["corpus", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: not a directory: {spec}\n"


def test_euler_weight_of_the_wrong_length_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "t.json"
    write(spec, {"n": 2, "torus_rank": 1, "finite_orders": [], "weight_matrix": [[1, 1]]})
    assert run(["euler", str(spec), "--degree", "2", "--weight", "1,2"]) == 1
    assert capsys.readouterr().err == "error: weight needs 1+0 entries, got 2\n"


def test_canonical_past_the_packed_limit_is_an_engine_error(corpus_dir, capsys):
    spec = str(corpus_dir / "z2_10.json")
    assert run(["canonical", spec, "--max-degree", "40000"]) == 2
    assert capsys.readouterr().err == (
        "error: degree 40000 does not fit a 16-bit packed coordinate; "
        "degrees stop at 32767\n"
    )


def test_report_records_a_skipped_canonical_stage(tmp_path, capsys):
    from invforms.action import load_action
    from invforms.report import run_analysis

    # dim Y = 3 lies above the truncation at degree 2
    spec = tmp_path / "z2.json"
    write(spec, {"n": 3, "finite_orders": [2], "weight_matrix": [[1, 1, 1]]})
    report = run_analysis(load_action(spec), max_degree=2)
    assert report["canonical"] == {"skipped": "bound 2 below form degree 3"}
    assert (
        "canonical comparison skipped: bound 2 below form degree 3"
        in report["inconclusive"]
    )
    assert run(["analyze", str(spec), "--max-degree", "2"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_the_corpus(corpus_dir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "invforms.cli", "corpus", str(corpus_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "35 instances: 0 violations, 0 golden mismatches, 0 inconclusive"
    )


def test_readme_synopsis_lists_each_commands_options(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    synopsis = {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
        for line in block.splitlines()
        if line.startswith("invforms ")
    }
    assert set(synopsis) == {"analyze", "corpus", "euler", "canonical"}
    for cmd, listed in synopsis.items():
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        usage = capsys.readouterr().out
        options = set(re.findall(r"--[a-z][a-z-]*", usage)) - {"--help"}
        assert listed == options, cmd
