"""The python examples of README.md run as written, in order, in one
namespace, so a doc example that calls a retired or renamed name fails."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
