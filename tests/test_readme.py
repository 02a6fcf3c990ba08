import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_and_matches_its_quoted_values():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    quoted = re.findall(r"^(solution\.\w+)\s+# ~(\d+\.(\d+))", block, re.M)
    assert [expr for expr, _, _ in quoted] == ["solution.omega_sq", "solution.phi_max"]
    for expr, value, decimals in quoted:
        half_ulp = 0.5 * 10.0 ** -len(decimals)
        assert eval(expr, namespace) == pytest.approx(float(value), abs=half_ulp)
