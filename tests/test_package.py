"""The package's public names, and source-level invariants: no assert
statements and no imports outside the standard library."""

import ast
import inspect
import pathlib
import sys

import freedist


def test_every_exported_name_resolves():
    missing = [name for name in freedist.__all__
               if not hasattr(freedist, name)]
    assert missing == []
    assert len(set(freedist.__all__)) == len(freedist.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from freedist import *", namespace)
    assert set(freedist.__all__) <= set(namespace)


def _package_trees():
    src = pathlib.Path(freedist.__file__).parent
    for path in sorted(src.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_package_has_no_assert_statements():
    """Invariants are explicit raises: ``python -O`` strips asserts."""
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_itself_and_the_standard_library():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}: {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _used_names(tree):
    """Every name a module reads, also inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) \
                else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def test_package_has_no_unused_imports():
    """Every imported name is read in its module; __init__ re-exports its
    imports through __all__."""
    found = []
    for name, tree in _package_trees():
        used = _used_names(tree) | set(getattr(freedist, "__all__", ())
                                       if name == "__init__.py" else ())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                found += [f"{name}:{node.lineno}: {alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0]
                          not in used]
    assert found == []


def test_sparse_sums_go_through_the_one_helper():
    """``polynomials.accumulate`` is the one accumulate-and-prune step:
    outside it no statement deletes a subscript and no ``.pop(k, None)``
    drops a key, and no other function is named for accumulation."""
    helpers, found = [], []
    for name, tree in _package_trees():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and "accumulate" in node.name:
                helpers.append(f"{name}:{node.name}")
                inside |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Delete) and any(
                    isinstance(t, ast.Subscript) for t in node.targets):
                found.append(f"{name}:{node.lineno}: del")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "pop" and len(node.args) == 2):
                found.append(f"{name}:{node.lineno}: pop")
    assert helpers == ["polynomials.py:accumulate"]
    assert found == []


def test_curvature_engine_builds_no_matrix():
    """The curvature engine works on basis coefficients: normalization.py
    reads no basis matrix (a side record's ``mats``) and calls no basis
    expansion (``.expand(``), so the matrix route cannot come back."""
    found = []
    for node in ast.walk(dict(_package_trees())["normalization.py"]):
        if isinstance(node, ast.Attribute) and node.attr == "mats":
            found.append(f"{node.lineno}: mats")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "expand"):
            found.append(f"{node.lineno}: expand")
    assert found == []


def test_algebra_chooses_no_side_data_by_a_conditional():
    """Each side's data lives in one record built by one wedge rule, so
    algebra.py has no ``... if side == ODD else ...`` expression."""
    found = [f"{node.lineno}" for node in ast.walk(
        dict(_package_trees())["algebra.py"])
        if isinstance(node, ast.IfExp) and any(
            isinstance(n, ast.Name) and n.id in ("ODD", "EVEN")
            for n in ast.walk(node.test))]
    assert found == []


def _rebound_sums(tree):
    """Line numbers of ``x = x + ...`` and ``x = x - ...`` inside loops."""
    return sorted({node.lineno for loop in ast.walk(tree)
                   if isinstance(loop, (ast.For, ast.While))
                   for node in ast.walk(loop)
                   if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.BinOp)
                   and isinstance(node.value.op, (ast.Add, ast.Sub))
                   and isinstance(node.value.left, ast.Name)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)]
                   == [node.value.left.id]})


def test_frame_and_linear_layers_sum_into_one_term_dict():
    """In geometry.py, linalg.py and parsing.py a sum over a loop goes into
    one term dict (``add_product``, ``accumulate``), and spinorial.py sums
    its Pfaffian in integers: no loop rebinds a name to itself plus or
    minus a term, which builds a new object every step."""
    trees = dict(_package_trees())
    names = ("geometry.py", "linalg.py", "parsing.py", "spinorial.py")
    assert {name: _rebound_sums(trees[name]) for name in names} \
        == {name: [] for name in names}
    assert _rebound_sums(ast.parse(
        "for p in ps:\n    out = out + p\nwhile q:\n    q = q - 1\n")) \
        == [2, 4]


def _object_uses(tree, names=("Polynomial", "VectorField")):
    """Line numbers, inside class ``_Parser``, of calls to the named classes
    and of attribute reads on them."""
    bases = [node.func if isinstance(node, ast.Call) else node.value
             for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "_Parser"
             for node in ast.walk(cls)
             if isinstance(node, (ast.Call, ast.Attribute))]
    return sorted(base.lineno for base in bases
                  if isinstance(base, ast.Name) and base.id in names)


def test_parser_builds_no_polynomial_or_vector_field():
    """The parser's values are term dicts: inside ``_Parser`` nothing calls
    Polynomial or VectorField or reads an attribute of either; only the
    entry points convert a parsed value, once."""
    assert _object_uses(dict(_package_trees())["parsing.py"]) == []
    assert _object_uses(ast.parse(
        "class _Parser:\n"
        "    def atom(self):\n"
        "        return Polynomial.zero(self.chart)\n"
        "    def field(self, c):\n"
        "        return VectorField(self.chart, c), ExactScalar.one()\n"
        "def parse(c):\n"
        "    return Polynomial(c, {})\n")) == [3, 5]


UNIT_KERNELS = {"_differential_term", "_codifferential_term", "_phi_term",
                "_closed_form_term"}


def _kernel_uses_outside_apply(tree):
    """Line numbers where a unit kernel is named other than as an argument
    of an ``_apply`` call (a direct call, or any other reference)."""
    passed = {id(arg) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_apply"
              for arg in node.args}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in passed
                  and (isinstance(node, ast.Name) and node.id in UNIT_KERNELS
                       or isinstance(node, ast.Attribute)
                       and node.attr in UNIT_KERNELS))


def test_unit_kernels_are_composed_only_through_apply():
    """Outside algebra.py a unit kernel is only handed to ``algebra._apply``,
    the one routine that composes it over items."""
    found = {name: _kernel_uses_outside_apply(tree)
             for name, tree in _package_trees() if name != "algebra.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _kernel_uses_outside_apply(ast.parse(
        "_apply(_phi_term, ga, ODD, items)\n"
        "_differential_term(ga, ODD, s, t)\n"
        "k = algebra._closed_form_term\n"
        "_apply(f, ga, ODD, _codifferential_term(ga, ODD, s, t))\n")) \
        == [2, 3, 4]


def _unit_kernel_uses_in(tree, function):
    """Line numbers where the named top-level function calls or names a unit
    kernel or ``_unit_term``; None when the tree defines no such function."""
    names = UNIT_KERNELS | {"_unit_term"}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            return sorted(node.lineno for node in ast.walk(fn)
                          if isinstance(node, ast.Name) and node.id in names
                          or isinstance(node, ast.Attribute)
                          and node.attr in names)
    return None


def test_operator_check_composes_no_unit_term():
    """The battery checks the operator's closed forms per slot tuple on
    ad-word matrices; the per-unit route lives on only as the test oracle
    ``oracle_operator_closed_forms``."""
    tree = dict(_package_trees())["algebra.py"]
    assert _unit_kernel_uses_in(tree, "_check_operator_closed_forms") == []
    assert _unit_kernel_uses_in(ast.parse(
        "def _check_operator_closed_forms(ga):\n"
        "    acc = _phi_term(ga, ODD, s, t)\n"
        "    f = partial(algebra._unit_term, 0)\n"
        "    return _apply(_closed_form_term, ga, ODD, items)\n"
        "def other():\n"
        "    return _codifferential_term(ga, EVEN, s, t)\n"),
        "_check_operator_closed_forms") == [2, 3, 4]
    assert _unit_kernel_uses_in(ast.parse("x = 1\n"), "f") is None


def test_frames_are_certified_at_the_origin_only():
    """build_frame and analyze take only the fields, and Frame keeps no
    base point: unimodularity does not depend on a point."""
    from freedist.geometry import Frame, VectorField, build_frame
    from freedist.normalization import analyze
    assert [list(inspect.signature(f).parameters)
            for f in (build_frame, analyze)] == [["fields"], ["fields"]]
    assert "point" not in inspect.signature(Frame).parameters
    assert not hasattr(VectorField, "evaluate")


def _evaluate_calls(tree):
    """Line numbers of calls to an attribute named ``evaluate``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "evaluate")


def test_frame_layer_evaluates_no_polynomial():
    """geometry.py reads the origin and the all-ones point off the
    Jacobian's term dicts (constant terms, coefficient sums), and
    normalization.py evaluates nothing either."""
    trees = dict(_package_trees())
    assert {name: _evaluate_calls(trees[name])
            for name in ("geometry.py", "normalization.py")} \
        == {"geometry.py": [], "normalization.py": []}
    assert _evaluate_calls(ast.parse(
        "v = e.evaluate(point)\nevaluate(p)\nf(row[0].evaluate(ones))\n")) \
        == [1, 3]


def _unreferenced_defs(defining, referring, exported):
    """Non-dunder functions defined in the ``defining`` trees that are
    neither exported nor referenced in the ``referring`` trees by a Name or
    Attribute node or an ImportFrom alias; strings and comments do not
    count."""
    referenced = set(exported)
    for tree in referring:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{name}:{node.name}" for name, tree in defining
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and node.name not in referenced)


def test_every_function_is_exported_or_referenced():
    """A function that only tests call is dead code: each non-dunder
    function of the package is exported or referenced in the package or
    the benchmark."""
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    package = list(_package_trees())
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(perfbench.glob("*.py"))]
    assert bench
    assert _unreferenced_defs(package, [tree for _, tree in package] + bench,
                              freedist.__all__) == []
    assert _unreferenced_defs(
        [("m.py", ast.parse(
            "def called(): pass\n"
            "def exported(): pass\n"
            "def only_named_in_text(): pass\n"
            "class C:\n"
            "    def __eq__(self, other): pass\n"
            "    def read(self): pass\n"
            "    def imported(self): pass\n"
            "    async def awaited(self): pass\n"))],
        [ast.parse("called()\n"
                   "f(c.read)\n"
                   "from m import imported\n"
                   "'only_named_in_text'  # awaited\n")],
        ["exported"]) == ["m.py:awaited", "m.py:only_named_in_text"]
