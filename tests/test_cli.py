import json

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


def test_corpus_parallel_matches_serial(corpus_dir, tmp_path, capsys):
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    run(["corpus", str(corpus_dir), "--json", str(s1)])
    run(["corpus", str(corpus_dir), "--json", str(s2), "--jobs", "2"])
    assert s1.read_text() == s2.read_text()
    capsys.readouterr()


def test_corpus_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["corpus", str(empty)]) == 1
    capsys.readouterr()


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
