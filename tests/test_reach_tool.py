"""tools/reach.py: a body runs from its first decorator to its last line, and
nested functions count with the body they sit in."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_bodies_are_top_level_functions_and_methods():
    source = ("import functools\n"          # 1
              "X = lambda: 0\n"             # 2
              "def f(a):\n"                 # 3
              "    def inner(b):\n"         # 4
              "        return b\n"          # 5
              "    return inner(a)\n"       # 6
              "class C:\n"                  # 7
              "    y = 1\n"                 # 8
              "    @property\n"             # 9
              "    @functools.cache\n"      # 10
              "    def g(self):\n"          # 11
              "        return 2\n"          # 12
              "    class D:\n"              # 13
              "        def h(self):\n"      # 14
              "            return 3\n"      # 15
              "@functools.cache\n"          # 16
              "async def k():\n"            # 17
              "    return [x for x in ()]\n")  # 18
    assert reach.bodies(source) == [("f", 3, 6), ("C.g", 9, 12), ("k", 16, 18)]
