"""Check the reference model against the bundled corpus.

For every corpus case whose policy the reference model reads, the model's
match count and verdict must equal those in the corpus manifest.  Reads the
fixture files directly; the engine is not imported.

    python3 perfbench/selftest.py        # exit 0 iff every case agrees
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import reference

CORPUS = Path("src") / "policygraph" / "corpus_data"


def selftest(root: Path) -> list[str]:
    """Disagreements between the reference model and the manifest, one
    line each; empty when all cases agree."""
    corpus = root / CORPUS
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    cases = 0
    for entry in manifest:
        if entry["policy"] not in reference.CHECKS:
            continue
        for case in entry["cases"]:
            lines = (corpus / case["trace"]).read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines if line.strip()]
            matches, violations = reference.check(entry["policy"], records)
            got = "violated" if violations else "upheld"
            cases += 1
            if (got, matches) != (case["expected"], case["matches"]):
                problems.append(
                    f"{entry['policy']} on {case['trace']}: model says {got} with {matches} matches, "
                    f"manifest says {case['expected']} with {case['matches']}"
                )
    if cases < 8:
        problems.append(f"only {cases} corpus cases use a policy the model reads; expected 8")
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = selftest(root)
    for line in problems:
        print(line)
    print("reference model agrees with the corpus manifest" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
