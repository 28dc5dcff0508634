import subprocess
import sys
from pathlib import Path

ANSWERS = Path(__file__).resolve().parent / "answers.py"


def test_answers_match_digest_on_one_seed_and_bound_per_workload():
    """The mini, ambiguous and fuzzy answers of one seed and one bound each
    equal the committed digest: query text, bindings, winner and every
    candidate's infeasible reason (``answers.py --check --quick``)."""
    proc = subprocess.run(
        [sys.executable, str(ANSWERS), "--check", "--quick"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
