"""Golden results: `tsdce run` and `tsdce bound` on one small fixed config
must reproduce the CSVs under tests/golden byte for byte, all columns but
the timing column ``wall_ms``.

A change that is meant to move these numbers (a re-keyed random stream,
a different estimator) regenerates the files and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from tsdce.cli import main

GOLDEN = Path(__file__).with_name("golden")

CONFIG = """
n_t = 16
n_r = 16
p_count = 16
q_count = 16
paths = 3
rounds = 3
snr_db_list = 0, 10, 20
trials = 10
seed = 7
methods = tsdce, ls, dft_peak
"""

# golden file name -> tsdce subcommand and its flags, less --config and --out
CASES = {
    "run.csv": ["run"],
    "bound_lemma3.csv": ["bound", "--kind", "lemma3"],
    "bound_lemma4.csv": ["bound", "--kind", "lemma4"],
    "bound_crlb.csv": ["bound", "--kind", "crlb"],
}


def results(argv, work: Path) -> str:
    """The CSV that ``tsdce argv`` writes on CONFIG, without its wall_ms column."""
    cfg, out = work / "golden.cfg", work / "out.csv"
    cfg.write_text(CONFIG, encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if "wall_ms" in header:
        drop = header.index("wall_ms")
        lines = [",".join(f for i, f in enumerate(line.split(",")) if i != drop)
                 for line in lines]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert results(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, argv in CASES.items():
            (GOLDEN / name).write_text(results(argv, Path(work)), encoding="utf-8",
                                       newline="\n")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
