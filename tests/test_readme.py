"""The shell examples of ``README.md`` run as written, and the CI workflow
runs the README's tier-1 command on the floor that ``pyproject.toml``
declares.

Every indented block whose first line is a shell command (``python``,
``cat``, ``export`` or ``SLRA_THREADS=``) runs under ``bash -e``, in order,
in one temporary directory that links ``src`` to the checkout's, with
``PYTHONPATH=src``, so that the examples find the package as the README
says and write their outputs outside the checkout.  The install block is
left out, since it needs the network, and so is the tier-1 command, which
starts with ``PYTHONPATH=`` and would run this test again.

CI installs no YAML parser, and Python 3.10 has no ``tomllib``, so the
workflow and ``pyproject.toml`` are read as text.
"""

import os
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: first words of the blocks that are shell commands
SHELL_STARTS = ("python", "cat", "export", "SLRA_THREADS=")


def shell_blocks(text):
    """The indented blocks of the Markdown ``text`` that are shell
    commands, unindented, in order, without the install block."""
    blocks = ["".join(line[4:] for line in block.splitlines(keepends=True))
              for block in re.findall(r"(?<=\n\n)((?: {4}.*\n)+)", text)]
    return [b for b in blocks if b.startswith(SHELL_STARTS) and "pip install" not in b]


def test_readme_shell_examples_run(tmp_path):
    blocks = shell_blocks((ROOT / "README.md").read_text())
    # an example of every subcommand, so a parse that finds none fails here
    assert {"converge", "toy", "freqest", "solve"} <= set(" ".join(blocks).split())
    (tmp_path / "src").symlink_to(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": "src"}
    for block in blocks:
        proc = subprocess.run(["bash", "-e", "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"


def test_ci_workflow_tracks_pyproject_and_the_readme():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    python_floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)[1]
    numpy_floor = re.search(r'"numpy>=([\d.]+)"', pyproject)[1]
    # the matrix's (python, numpy) pairs; the floor job pins numpy with ==
    jobs = re.findall(r'- python: "([\d.]+)"\n\s+numpy: "([^"]+)"', workflow)
    assert [job for job in jobs if "==" in job[1]] == [(python_floor, f"numpy=={numpy_floor}.*")]
    tier1 = re.search(r"^    (PYTHONPATH=.*)$", (ROOT / "README.md").read_text(), re.M)[1]
    step = re.search(r"- name: Tier-1 tests\n\s+run: (.*)", workflow)[1]
    assert step.startswith(tier1)
