"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["b"].values == (2, 2, 2)
    assert namespace["sphere"].primes == (2147483647, 2147483629)
    assert namespace["m"] == {(3, 0): 2, (2, 1): 2, (1, 2): 2}
