"""One traced pass of the benchmark, run as a user runs it.

A traced run checks what the unit tests do not: that its hooks still fit
the functions they wrap, that the benchmark's own time stays within its
share of the pass, and that every traced name resolves.  Each run takes
one to four seconds and writes only under bench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload",
                         ["suites-default", "design-scaled", "penrose-sweep"])
def test_traced_benchmark_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
