"""The README's library example runs as written and its estimates are exact."""

import contextlib
import io
import os
import pathlib
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_matches_retraining():
    section = pathlib.Path(README).read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), scope)
    for estimate in (scope["theta_u"], scope["theta_u_dual"]):
        assert np.linalg.norm(estimate - scope["retrained"]) < 1e-6
