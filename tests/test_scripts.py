"""The two scripts the README points to run from a checkout: the worked
examples print the committed text byte for byte (P, Q and r included), and
the random survey's own assertions hold."""

import os
import subprocess
import sys
from pathlib import Path

import geninv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(geninv.__file__).parents[1]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, timeout=300)


def test_worked_examples_print_the_committed_text():
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "worked_examples.out").read_bytes()


def test_random_survey_passes():
    proc = run_script("random_survey.py", "--count", "20", "--seed", "1")
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()
