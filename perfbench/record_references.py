"""Record `references.json`: output digests of every default-seed call.

The references pin the engine's current answers; a later change must
reproduce them, so record them only from code whose output is trusted
and never to make a failing check pass.

    PYTHONPATH=src python3 perfbench/record_references.py
"""

import json
import sys

import workloads


def main():
    refs = {}
    for name in workloads.NAMES:
        for call in workloads.load(name, seed=0):
            out = call.run()
            problems = call.problems(out)
            if problems:
                sys.exit(f"{call.key}: {'; '.join(problems)}")
            refs[call.key] = call.fingerprint(out)
            print(call.key, flush=True)
    workloads.REFERENCES.write_text(
        json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
