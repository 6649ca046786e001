import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selfcheck_passes():
    # the benchmark traces functions by name (pipeline.pam_cluster,
    # kmedoids.kmeanspp_init, ...); renaming one must fail here, not there
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
