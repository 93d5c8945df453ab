"""Stripped corpus reports are pinned by sha256.

`tests/data/corpus_report_sha256.json` holds, per bound ("default" or
an integer), the sha256 of `report_to_json(strip_timings(...))` for each
bundled spec.  A change that alters any report byte fails here.  To
re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_report_hashes.py
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

from invforms.action import load_action
from invforms.report import report_to_json, run_analysis, strip_timings

PINNED = Path(__file__).parent / "data" / "corpus_report_sha256.json"
BOUNDS = ("default", 6)


def report_hashes(corpus_dir, bound):
    out = {}
    for path in sorted(corpus_dir.glob("*.json")):
        act = load_action(path)
        report = run_analysis(act, None if bound == "default" else bound)
        text = report_to_json(strip_timings(report))
        out[path.stem] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_corpus_reports_match_pinned_hashes(corpus_dir):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(str(b) for b in BOUNDS)
    for bound in BOUNDS:
        want = pinned[str(bound)]
        assert len(want) == 35
        assert report_hashes(corpus_dir, bound) == want, bound


if __name__ == "__main__":
    corpus = Path(resources.files("invforms").joinpath("corpus"))
    table = {str(b): report_hashes(corpus, b) for b in BOUNDS}
    PINNED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
