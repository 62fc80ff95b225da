"""The README's library example runs as written and its estimates are exact; its
CLI section lists every override flag and shows only command lines that parse."""

import contextlib
import io
import os
import pathlib
import re

import numpy as np

from kinfluence import cli
from kinfluence.experiments import CONFIG_KEYS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_matches_retraining():
    section = pathlib.Path(README).read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), scope)
    for estimate in (scope["theta_u"], scope["theta_u_dual"]):
        assert np.linalg.norm(estimate - scope["retrained"]) < 1e-6


def _cli_section():
    return pathlib.Path(README).read_text().split("## CLI", 1)[1].split("### Config keys", 1)[0]


def test_flag_list_names_every_override_flag():
    (paragraph,) = [p for p in _cli_section().split("\n\n") if p.startswith("Flags ")]
    assert set(re.findall(r"`(--[a-z]+)", paragraph)) == {key.flag for key in CONFIG_KEYS
                                                          if key.flag}


def test_cli_block_parses():
    block = re.search(r"```bash\n(.*?)```", _cli_section(), re.S).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["kinf"]]
    assert len(commands) == len(block.splitlines())
    for argv in commands:
        cli._build_parser().parse_args(argv)
