"""The README's Python examples run as written.

Every ``python`` block of the README runs, in order and in one namespace,
in a fresh directory holding a generated ``study.csv`` with the columns
the examples name, so the signatures and names they show stay current.
"""

import re
from pathlib import Path

from htefusion import SimConfig, generate_replicate
from test_cli import write_csv

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = BLOCK.findall(README.read_text())
    assert len(blocks) == 4
    data = generate_replicate(SimConfig(n=300, m=1200, beta=(1.0,) * 5, seed=31), 0)
    write_csv(tmp_path / "study.csv", data.s, data.a, data.y, data.x)  # s,a,y,age,...,x5
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["rep"].converged and namespace["rct"].converged
