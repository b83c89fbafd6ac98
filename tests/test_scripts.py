import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import partsched
from partsched import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


@pytest.mark.parametrize("name,args,summary", [
    ("savings_demo.py", ["--locations", "2000"], "rnpe="),
])
def test_script_runs(tmp_path, name, args, summary):
    assert summary in run_script(tmp_path, name, *args)


def test_savings_demo_default_run_matches_readme(tmp_path):
    # README: "~57x fewer non-root evaluations than the evaluate-everything
    # baseline with no location-level average-precision loss"
    out = run_script(tmp_path, "savings_demo.py")
    assert "rnpe=56.94 " in out
    assert float(re.search(r"gap=(\S+)", out).group(1)) <= 0.0


def run_script(cwd, name, *args) -> str:
    """stdout of scripts/<name> run with args in cwd, on this checkout's partsched."""
    src = str(Path(partsched.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_library_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["results"]) == 1000
    assert isinstance(namespace["results"], partsched.DetectionResults)


def test_readme_sweep_command_reproduces_its_figures(tmp_path, capsys):
    # README Experiments: the equal-cost sweep's spec, grid and quoted figures
    section = README.read_text().split("## Experiments", 1)[1].split("## ", 1)[0]
    spec = re.search(r"echo '(.*?)' > tradeoff\.json", section, re.S).group(1)
    grid = re.search(r'--grid "(.*?)"', section).group(1)
    (tmp_path / "tradeoff.json").write_text(spec)
    out = tmp_path / "tradeoff_sweep.csv"
    assert cli.main(["sweep", "--spec", str(tmp_path / "tradeoff.json"),
                     "--grid", grid, "--out", str(out)]) == 0
    assert "diagonal: error_nonincreasing=True rnpe_nonincreasing=True" in capsys.readouterr().out
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    errors = [float(r["fp_rate"]) + float(r["fn_rate"]) for r in rows]
    assert (errors[0], round(errors[-1], 3)) == (1.0, 0.014)
    # lambda 0.5 and 2: every location labelled background before any part
    assert all((r["rnpe"], r["mean_tau"], r["fp_rate"]) == ("inf", "0.0", "0.0")
               for r in rows[:2])
    assert round(float(rows[-1]["rnpe"]), 2) == 1.82
