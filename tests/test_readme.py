import csv
import re
from pathlib import Path

import partsched
from partsched import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["results"]) == 1000
    assert isinstance(namespace["results"], partsched.DetectionResults)


def run_readme_sweep(tmp_path, name) -> list[dict]:
    """sweep.csv rows of the README Experiments block that writes <name>.json."""
    section = README.read_text().split("## Experiments", 1)[1].split("## ", 1)[0]
    spec = re.search(rf"echo '([^']*)' > {name}\.json", section).group(1)
    grid = re.search(rf'--spec {name}\.json --grid "(.*?)"', section).group(1)
    (tmp_path / f"{name}.json").write_text(spec)
    out = tmp_path / f"{name}_sweep.csv"
    assert cli.main(["sweep", "--spec", str(tmp_path / f"{name}.json"),
                     "--grid", grid, "--out", str(out)]) == 0
    with open(out, newline="") as f:
        return list(csv.DictReader(f))


def test_readme_headline_sweep_reproduces_its_figures(tmp_path):
    # "RNPE 56.94 ... with no location-level average-precision loss
    # (`ap` 1.0, `ap_full` 0.9993, `delta_ap` −0.0007)"
    (row,) = run_readme_sweep(tmp_path, "headline")
    assert round(float(row["rnpe"]), 2) == 56.94
    assert float(row["delta_ap"]) <= 0.0
    assert (float(row["ap"]), round(float(row["ap_full"]), 4),
            round(float(row["delta_ap"]), 4)) == (1.0, 0.9993, -0.0007)
    assert row["mean_tau"] == "1.043"


def test_readme_sweep_command_reproduces_its_figures(tmp_path, capsys):
    # README Experiments: the equal-cost sweep's spec, grid and quoted figures
    rows = run_readme_sweep(tmp_path, "tradeoff")
    assert "diagonal: error_nonincreasing=True rnpe_nonincreasing=True" in capsys.readouterr().out
    errors = [float(r["fp_rate"]) + float(r["fn_rate"]) for r in rows]
    assert (errors[0], round(errors[-1], 3)) == (1.0, 0.014)
    # lambda 0.5 and 2: every location labelled background before any part
    assert all((r["rnpe"], r["mean_tau"], r["fp_rate"]) == ("inf", "0.0", "0.0")
               for r in rows[:2])
    assert round(float(rows[-1]["rnpe"]), 2) == 1.82
    assert ([round(float(r["delta_ap"]), 4) for r in rows]
            == [0.4992, 0.4992, 0.0145, 0.0061, 0.0030])
