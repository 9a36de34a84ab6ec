"""README's library quick start runs as written and states true numbers, so a
name or keyword it uses cannot be removed without this test failing."""

import ast
import os
import re
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start_block():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_and_its_product_is_right():
    block = quick_start_block()
    *body, last = ast.parse(block).body
    namespace = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    product = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    # the comment under the product states its coefficients
    stated = {tuple(int(p) for p in parts.split(",")): Fraction(coeff)
              for coeff, parts in re.findall(r"(\d+/\d+) C_\(([\d,]+)\)", block)}
    assert stated == {(3, 2): Fraction(28, 75), (4, 1): Fraction(27, 50)}
    assert product.as_dict() == stated
