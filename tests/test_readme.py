"""README's documented API runs against the package.

Every ```python block of README.md is executed, in order, in one
namespace; every name in `ppverify.__all__` must resolve; and every
inline call of an exported function, written `` `name(p1, p2=...)` ``,
must name that function's leading parameters, in order.  A renamed or removed export, or a
parameter change the README does not follow, fails here.
"""

import inspect
import pathlib
import re

import ppverify

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks
    namespace: dict = {}
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)


def test_every_exported_name_resolves():
    assert len(set(ppverify.__all__)) == len(ppverify.__all__)
    assert [name for name in ppverify.__all__ if not hasattr(ppverify, name)] == []


def test_readme_signatures_match_the_exported_functions():
    written = re.findall(r"`(\w+)\(([\w\s,=.\-\"']*)\)`", README)
    checked = 0
    for name, params in written:
        obj = getattr(ppverify, name, None)
        if name not in ppverify.__all__ or not inspect.isfunction(obj):
            continue
        names = [p.split("=")[0].strip() for p in params.split(",") if p.strip()]
        leading = list(inspect.signature(obj).parameters)[:len(names)]
        assert names == leading, f"README: {name}({params})"
        checked += 1
    assert checked >= 2
