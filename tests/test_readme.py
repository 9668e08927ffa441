"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour") : text.index("### Shipped geometries")]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["report"].angle - 3.141592653589793) <= 1e-3
    assert namespace["verdict"].factorizable
