"""Every demo script, and the README's quick start, runs to completion on an
uninstalled checkout."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from policygraph.corpus import corpus_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def readme_quick_start() -> str:
    """The code block under the README's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """The quick start, verbatim, on the bundled no_read_up policy and its
    violating trace; a file it leaves open fails the run (ResourceWarning)."""
    for name, target in (("no_read_up.policy", "p.policy"), ("no_read_up_violate.trace.jsonl", "t.jsonl")):
        (tmp_path / target).write_text(corpus_text(name), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_quick_start(), "README.md", "exec"), {})
    gc.collect()
    assert capsys.readouterr().out == "False [{'FL': 2, 'UL': 0}]\n"
