"""Golden outputs: ``configs/quick.cfg`` gives the same bytes on every run.

Three records under ``tests/golden/`` are pinned byte for byte:

* ``diagnostics.csv`` of ``nsch simulate --config configs/quick.cfg``;
* ``optim_report.csv`` of ``nsch optimize --config configs/quick.cfg``;
* ``verify_values.txt``: ``name: repr(values)`` of each check's
  ``VerifyReport`` in ``nsch verify all --config configs/quick.cfg``, which
  checks the stripe contrast problem (the CLI swaps the tracking target for
  the stripe).

A change that is meant to move bits re-records all three and lists the
moved values in CHANGES.md.  The CSVs are what

    nsch simulate --config configs/quick.cfg --out tests/golden
    nsch optimize --config configs/quick.cfg --out tests/golden

write; ``PYTHONPATH=src python tests/test_golden.py`` runs the same three
commands in-process and re-records all three files.  Set no
``NSCH_THREADS`` when recording.
"""

import os

from nsch import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK = os.path.join(ROOT, "configs", "quick.cfg")
GOLDEN = os.path.join(ROOT, "tests", "golden")
CSVS = ("diagnostics.csv", "optim_report.csv")
VALUES = "verify_values.txt"


def record(outdir: str) -> None:
    """Write the three golden records of ``quick.cfg`` into ``outdir``."""
    lines = []

    def recorded(problem, which, **kwargs):
        report = real_verify(problem, which, **kwargs)
        lines.append(f"{which}: {report.values!r}\n")
        return report

    assert cli.main(["simulate", "--config", QUICK, "--out", outdir]) == 0
    assert cli.main(["optimize", "--config", QUICK, "--out", outdir]) == 0
    real_verify, cli.verify = cli.verify, recorded
    try:
        assert cli.main(["verify", "all", "--config", QUICK, "--out", outdir]) == 0
    finally:
        cli.verify = real_verify
    with open(os.path.join(outdir, VALUES), "w") as fh:
        fh.writelines(lines)


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_quick_outputs_match_the_golden_records(tmp_path, capsys):
    record(str(tmp_path))
    capsys.readouterr()  # the commands' summaries
    for name in (*CSVS, VALUES):
        assert read(tmp_path / name) == read(os.path.join(GOLDEN, name)), name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    record(GOLDEN)
