"""Rules every module of the package keeps."""

import ast
from pathlib import Path

from tautsys.model import (LatticeRelation, build_projective_model,
                           lattice_relations)
from tautsys.systems import toric_operator

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "tautsys").glob("*.py"))


def test_package_uses_no_assert_statements():
    """`python -O` strips asserts, so invariants must be explicit raises."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []


TERM_MAP_METHODS = {"__add__", "__neg__", "__sub__", "__rsub__", "__eq__",
                    "__hash__", "is_zero", "_check_compatible"}


def test_term_map_arithmetic_has_one_home():
    """Polynomials, series and operators share one arithmetic core, so a
    change of key or coefficient handling is made in one place."""
    homes = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in TERM_MAP_METHODS):
                        homes.setdefault(item.name, []).append(
                            f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.FunctionDef)
                  and node.name in ("_raw_poly", "_raw")):
                homes.setdefault(node.name, []).append(path.stem)
    assert homes == {name: ["exact.TermMap"] for name in TERM_MAP_METHODS}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _inside(tree, function):
    """ids of the nodes inside the bodies of functions named `function`."""
    return {id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == function
            for node in ast.walk(func)}


def test_sums_accumulate_in_one_pass():
    """A sum of many term maps is one `plus` call; a loop that rebuilds a
    running total with `+` copies the total at every step."""
    found = set()
    for path in SOURCES:
        for loop in ast.walk(_parse(path)):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    continue
                name = node.targets[0].id
                if any(isinstance(sub, ast.BinOp)
                       and isinstance(sub.op, ast.Add)
                       and any(isinstance(side, ast.Name) and side.id == name
                               for side in (sub.left, sub.right))
                       for sub in ast.walk(node.value)):
                    found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []


def _is_falling_factor(node):
    """`<product> *= <value> - <step>`, one factor of a falling factorial."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Sub))


def test_period_derivatives_have_one_walk():
    """Every derivative of a series is one falling-factorial pass of
    `series._derive_into`: the series, period and system layers call no
    `derivative_a`, take a falling factor nowhere else, and
    `LaurentSeries.derivative_a`, the generating series,
    `PeriodFamily.derivative` and the vector components all read the
    kernel."""
    found, factors, callers = [], 0, {}
    for path in SOURCES:
        if path.name not in ("series.py", "periods.py", "systems.py"):
            continue
        tree = _parse(path)
        kernel = _inside(tree, "_derive_into")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "derivative_a"):
                found.append(f"{path.name}:{node.lineno} derivative_a")
            if _is_falling_factor(node):
                if id(node) in kernel:
                    factors += 1
                else:
                    found.append(f"{path.name}:{node.lineno} falling factor")
        for name in ("_derive_into", "_derivative"):
            callers.setdefault(name, set()).update(_callers(tree, name))
    assert found == []
    assert factors == 1
    assert callers == {
        "_derive_into": {"_derivative", "derivative_generating_series"},
        "_derivative": {"derivative_a", "derivative",
                        "derivative_vector_solution"}}


def test_b_monomials_split_in_one_place():
    """`vectorize` reads the one split by b-monomial,
    `LaurentSeries.b_parts`; `scalarize` makes no series per component."""
    calls = {}
    for path in SOURCES:
        for func in ast.walk(_parse(path)):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("b_parts", "b_coefficient",
                                               "mul_b_monomial")):
                    calls.setdefault(node.func.attr, set()).add(
                        f"{path.stem}.{func.name}")
    assert calls == {"b_parts": {"systems.vectorize"}}


def _callers(tree, name):
    """Names of the functions whose bodies call `name`, once per call."""
    return [func.name
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_exponent_tuples_are_coerced_in_one_place():
    """Exponents go through `exact.exponents`, which refuses a float or a
    Fraction; `int()` would round them silently.  Parsing the tokens of a
    text with `int` is not coercion and stays allowed."""
    found = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "map" and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "int"):
                found.append(f"{path.name}:{node.lineno} map(int, ...)")
            if not isinstance(node, (ast.GeneratorExp, ast.ListComp,
                                     ast.SetComp)):
                continue
            element = node.elt
            for loop in node.generators:
                split = (isinstance(loop.iter, ast.Call)
                         and isinstance(loop.iter.func, ast.Attribute)
                         and loop.iter.func.attr == "split")
                if (isinstance(element, ast.Call)
                        and isinstance(element.func, ast.Name)
                        and element.func.id == "int"
                        and len(element.args) == 1
                        and isinstance(element.args[0], ast.Name)
                        and isinstance(loop.target, ast.Name)
                        and element.args[0].id == loop.target.id
                        and not split):
                    found.append(f"{path.name}:{node.lineno} int(...) for")
    assert found == []


def _is_expansion(node):
    """A call of `comb` or `perm`, bare or as an attribute."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("comb", "perm"))


def _is_int_recovery(node):
    """The comparison `<value>.denominator == 1`."""
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "denominator"
            and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 1)


def test_normal_ordering_has_one_loop():
    """`compose` and `fourier` normal order through one helper, the only
    place in `weyl` that expands the commutation rule, and integral
    coefficients are recovered as ints by one helper."""
    path = next(path for path in SOURCES if path.name == "weyl.py")
    assert "_commutations" not in path.read_text()
    weyl = _parse(path)
    funcs = {func.name: func for func in ast.walk(weyl)
             if isinstance(func, ast.FunctionDef)}
    for test, home in ((_is_expansion, "_normal_order"),
                       (_is_int_recovery, "_integral")):
        everywhere = sum(map(test, ast.walk(weyl)))
        assert everywhere == sum(map(test, ast.walk(funcs[home]))) > 0
    assert set(_callers(weyl, "_integral")) == {"_normal_order", "apply"}
    assert set(_callers(weyl, "_normal_order")) == {"compose", "fourier"}


def test_solver_eliminates_on_integers():
    """`solve_exact` sweeps one integer matrix, witness multipliers
    included; a true division or a `Fraction` appears only in its
    back-substitution, the loop over the free column."""
    exact = _parse(next(path for path in SOURCES if path.name == "exact.py"))
    solve = next(func for func in ast.walk(exact)
                 if isinstance(func, ast.FunctionDef)
                 and func.name == "solve_exact")
    back = {id(node)
            for loop in ast.walk(solve)
            if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
            and loop.target.id == "free"
            for node in ast.walk(loop)}
    found = [f"exact.py:{node.lineno}"
             for node in ast.walk(solve)
             if id(node) not in back
             and (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)
                  or isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "Fraction")]
    assert back
    assert found == []


def _is_json_call(node, name):
    """A call of `json.<name>` or of a bare `<name>`."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Attribute) and func.attr == name
        and isinstance(func.value, ast.Name) and func.value.id == "json"
        or isinstance(func, ast.Name) and func.id == name)


def test_json_is_written_by_the_one_indent_writer():
    """`json.dumps` with `indent` never reaches CPython's C encoder, so no
    module calls it; the CLI writes JSON only through `serialize.dumps`."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(_parse(path))
             if _is_json_call(node, "dumps")
             and any(k.arg == "indent" for k in node.keywords)]
    assert found == []
    cli = _parse(next(path for path in SOURCES if path.name == "cli.py"))
    imported = {name for node in ast.walk(cli)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in (getattr(node, "module", None),
                             *(alias.name for alias in node.names))}
    assert "json" not in imported
    assert not [node.lineno for node in ast.walk(cli)
                if any(_is_json_call(node, name)
                       for name in ("dumps", "dump"))]
    assert [node.lineno for node in ast.walk(cli)
            if isinstance(node, ast.Attribute) and node.attr == "dumps"
            and isinstance(node.value, ast.Name)
            and node.value.id == "serialize"]


#: the builders that make operators from parts they made and checked
#: themselves; every other operator goes through `WeylOperator(...)`
TRUSTED_OPERATOR_CALLERS = {
    "weyl": {"_unit_term", "euler_a", "euler_b"},
    "systems": {"toric_operator", "symmetry_operator", "build_scalar_system",
                "build_vector_system", "dual_generator_families"},
}


def _new_calls(tree, name):
    """The `<x>.__new__(...)` calls that name the class `name`, as the
    receiver or as an argument."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and any(isinstance(part, ast.Name) and part.id == name
                    for part in (node.func.value, *node.args))]


def test_unchecked_parts_have_named_builders():
    """Only the named builders skip the operator checks, through
    `weyl._raw_operator`; only `model.lattice_relations` makes a
    `LatticeRelation` without its checks.  The public constructors keep
    validating."""
    callers, found = {}, []
    for path in SOURCES:
        tree = _parse(path)
        names = set(_callers(tree, "_raw_operator"))
        if names:
            callers[path.stem] = names
        for name, home in (("WeylOperator", "_raw_operator"),
                           ("LatticeRelation", "lattice_relations")):
            inside = _inside(tree, home)
            found += [f"{path.name}:{node.lineno}"
                      for node in _new_calls(tree, name)
                      if id(node) not in inside]
    assert callers == TRUSTED_OPERATOR_CALLERS
    assert found == []


def test_hand_made_relation_builds_the_same_operators():
    """A relation from the validating constructor and the one
    `lattice_relations` makes for the same vector are one relation."""
    for d, bound in ((1, 4), (2, 3), (3, 2)):
        spec = build_projective_model(d, ordering="interior-first")
        for made in lattice_relations(spec, bound):
            hand = LatticeRelation(made.vector)
            assert hand == made
            assert ((hand.positive, hand.negative, hand.degree)
                    == (made.positive, made.negative, made.degree))
            assert toric_operator(spec.n, hand) == toric_operator(spec.n,
                                                                   made)


def _methods(tree):
    """Every function of the module by qualified name, methods under
    `Class.name`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return out


def _settles_empty(node):
    """`if <a> == <b>: return {}`, a residual settled by a comparison."""
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.ops[0], ast.Eq)
            and len(node.body) == 1 and isinstance(node.body[0], ast.Return)
            and isinstance(node.body[0].value, ast.Dict)
            and not node.body[0].value.keys)


def _accumulates(node):
    """`<map>[<key>] = <...>get(<key>, 0) + <coeff> * <c>`, a product of
    coefficients summed under a key."""
    return (isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Add)
            and isinstance(node.value.left, ast.Call)
            and getattr(node.value.left.func, "id",
                        getattr(node.value.left.func, "attr", None)) == "get"
            and isinstance(node.value.right, ast.BinOp)
            and isinstance(node.value.right.op, ast.Mult))


def test_residuals_are_summed_only_behind_apply_operator():
    """A residual is summed, or a binomial row settled by comparing its two
    derivatives, only in `DerivativeTable.apply`, which only
    `apply_operator` calls; the packed derivatives are read only there.
    `verify_annihilation` reaches residuals through `apply_operator`, once
    per operator, so the layer perfbench traces per family sees them all."""
    found, calls = [], {}
    for path in SOURCES:
        for name, func in _methods(_parse(path)).items():
            for node in ast.walk(func):
                if _settles_empty(node) or _accumulates(node):
                    found.append(f"{path.stem}.{name}")
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("apply", "derivative",
                                               "_shift", "_below")):
                    calls.setdefault(node.func.attr, set()).add(
                        f"{path.stem}.{name}")
    apply = "weyl.DerivativeTable.apply"
    assert found == [apply, apply]
    assert calls == {"apply": {"weyl.apply_operator"},
                     "derivative": {"weyl.DerivativeTable.derivative", apply},
                     "_shift": {apply}, "_below": {apply}}
    periods = _methods(_parse(next(path for path in SOURCES
                                   if path.name == "periods.py")))
    verify = periods["verify_annihilation"]
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(verify) if isinstance(node, ast.Call)]
    assert called.count("apply_operator") == 1
    loop = next(node for node in ast.walk(verify)
                if isinstance(node, ast.For))
    assert loop.iter.func.attr == "labelled"
    assert "apply_operator" in [getattr(node.func, "id", None)
                                for node in ast.walk(loop)
                                if isinstance(node, ast.Call)]


def _is_cut(node):
    """`_index(<key>, <i0>) > <truncation>` or `<=`: an expansion index
    compared with a truncation, the test of a cut."""
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "_index"
            and isinstance(node.ops[0], (ast.Gt, ast.LtE)))


def test_series_are_cut_in_one_helper():
    """`_raw_series` wraps a term map with no scan; past the validating
    constructor, which drops input terms beyond the truncation, a series is
    cut only in `LaurentSeries._like`, since only sums and scalars added can
    reach past it."""
    found = []
    for path in SOURCES:
        tree = _parse(path)
        found += [f"{path.stem}.{name}"
                  for name, func in _methods(tree).items()
                  if any(map(_is_cut, ast.walk(func)))]
        if path.name == "series.py":
            raw = _methods(tree)["_raw_series"]
            assert not [node for node in ast.walk(raw)
                        if isinstance(node, (ast.For, ast.comprehension))]
    assert sorted(found) == ["series.LaurentSeries.__init__",
                             "series.LaurentSeries._like"]


def test_index_shift_is_taken_only_by_apply_operator():
    """An operator's worst index shift is taken once per application, in
    `weyl.apply_operator`; `verify-periods` reads its least certifying order
    off the residual report instead of taking every shift again."""
    found = []
    for path in SOURCES:
        for name, func in _methods(_parse(path)).items():
            found += [f"{path.stem}.{name}" for node in ast.walk(func)
                      if isinstance(node, ast.Name)
                      and node.id == "index_shift"]
    assert found == ["weyl.apply_operator"]


def test_lie_matrices_are_read_only_in_the_model():
    """The system builders read the gl action as the sparse `lie_entries`;
    only `model` reads the dense matrix of a `LieGenerator`."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "model.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert found == []


def _docstrings(tree):
    """ids of the docstring nodes of a module and of its functions and
    classes."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_cli_frame_and_registry_are_stated_once():
    """Only `cli.main` writes the report frame: it alone calls `_header` and
    holds a `verdict:` text.  Each subparser names its handler through
    `set_defaults`, once, and no dict maps command names to handlers."""
    cli = _parse(next(path for path in SOURCES if path.name == "cli.py"))
    docstrings = _docstrings(cli)
    frame = {}
    for name, func in _methods(cli).items():
        for node in ast.walk(func):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "verdict:" in node.value
                    and id(node) not in docstrings):
                frame.setdefault("verdict:", set()).add(name)
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_header"):
                frame.setdefault("_header", set()).add(name)
    assert frame == {"verdict:": {"main"}, "_header": {"main"}}

    handlers = {name for name in _methods(cli) if name.startswith("cmd_")}
    named = [keyword.value.id for node in ast.walk(cli)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "set_defaults"
             for keyword in node.keywords if keyword.arg == "handler"]
    assert len(handlers) == 7
    assert sorted(named) == sorted(handlers)
    referenced = [node.id for node in ast.walk(cli)
                  if isinstance(node, ast.Name) and node.id in handlers]
    assert sorted(referenced) == sorted(named)
    found = [node.lineno for node in ast.walk(cli)
             if isinstance(node, ast.Dict)
             and any(isinstance(value, ast.Name) and value.id in handlers
                     for value in node.values)]
    assert found == []
