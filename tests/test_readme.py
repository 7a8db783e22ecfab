"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_recovers_theta():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):  # its print stays out of the test log
        exec(block, scope)
    assert abs(scope["theta_hat"] - 0.01) <= 0.2 * 0.01  # criterion 7's bound
