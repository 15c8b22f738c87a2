"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opbellman"


def test_package_source_has_no_assert_statements():
    # hypotheses are checked explicitly: ``python -O`` strips asserts
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_package_source_has_no_transpose_attribute():
    # ``.T`` reverses every axis of a stack (..., d, d) of matrices; the
    # adjoint of each matrix swaps only the last two (``spectral.adjoint``)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "T"
    ]
    assert not found, f".T attributes in the package: {found}"


#: The numpy calls that make a stream or seed one.
_STREAM_CALLS = {"default_rng", "SeedSequence", "PCG64", "Generator"}


def test_every_stream_comes_from_the_one_seeding_function():
    # only instances.py makes streams (the class ``Streams``, from the states
    # of ``stream_states``), so every trial's draws are seeded one way; a module that seeds its own
    # stream would draw bits that no test of the seeding function sees
    found, seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in _STREAM_CALLS:
                if path.name == "instances.py":
                    seen.add(name)
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"streams made outside instances.py: {found}"
    assert seen == {"PCG64", "Generator"}


def _names_generator(node) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "Generator") or (isinstance(n, ast.Name) and n.id == "Generator")
        for n in ast.walk(node)
    )


def test_no_module_branches_on_a_single_generator():
    # every operator generator takes a stream stack, one stream per trial; a
    # type test for one numpy Generator brings back a second calling
    # convention, with result shapes of its own, that no campaign calls
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            type_test = isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass")
            if (type_test and any(map(_names_generator, node.args[1:]))) or (
                isinstance(node, ast.Compare) and _names_generator(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"type tests for a numpy Generator in the package: {found}"


#: Top-level names that are entry points rather than helpers: the dim-1
#: oracle of the tier-1 suite, the console-script entry, the per-trial
#: campaign entry that the benchmark's tracer wraps and the tests call (it
#: builds through ``_build_trials`` as the campaign and the acceptance
#: gate's rounds do, on one trial), and the public Loewner comparison,
#: which the package's verdicts (``checks._links``) are tested against.
ENTRY_POINTS = {"reference_slack", "entrypoint", "run_check_trial", "loewner_leq"}


def _decorator_names(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        yield target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_every_top_level_definition_has_a_caller():
    # a function or class that nothing in the package references, other than
    # its own body and the re-exports of __init__.py, is dead public surface
    defined, used = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            own = getattr(stmt, "name", None)
            for name in names - {own}:
                used[name] = used.get(name, 0) + 1
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if "inequality" not in set(_decorator_names(stmt)):
                    defined.append((path.name, stmt.name))
    dead = [f"{mod}:{name}" for mod, name in defined if name not in used and name not in ENTRY_POINTS]
    assert not dead, f"top-level definitions with no caller in the package: {dead}"


#: The wrappers that define a constant lookup rather than use one.
_CONSTANT_DEFINITIONS = {"_gamma_cached", "_beta_cached", "_per_trial"}


def test_checkers_take_constants_through_the_per_trial_lookup():
    # a checker's cell values m and M may be one per trial of a stack; a
    # constant called on them directly sees an array, or the first trial's
    # interval, where ``checks._per_trial`` evaluates each trial's own
    # interval on Python floats
    found, passed = [], 0
    for name in ("checks.py", "campaign.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
        for stmt in tree.body:
            if getattr(stmt, "name", None) in _CONSTANT_DEFINITIONS:
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                direct = isinstance(fn, ast.Name) and fn.id in ("_gamma_cached", "_beta_cached")
                module = isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id == "constants"
                if direct or module:
                    found.append(f"{name}:{node.lineno}")
                if isinstance(fn, ast.Name) and fn.id == "_per_trial":
                    passed += 1
    assert not found, f"constants called other than through checks._per_trial: {found}"
    assert passed >= 10


def test_checkers_never_call_a_mean_on_one_float():
    # a checker's mean f is one function per trial of a stack where the cells
    # differ in their mean (means.per_trial_function), whose fn takes eigenvalue rows,
    # not one float; f(m) goes through ``_per_trial(_value_at, ...)`` on the
    # mean's id, so the function ``_per_trial`` evaluates is a module-level
    # function, never a RepresentingFunction or a value a checker formed
    import importlib

    from opbellman.means import RepresentingFunction

    found, passed = [], 0
    for name in ("checks.py", "campaign.py"):
        module = importlib.import_module(f"opbellman.{name[:-3]}")
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_per_trial"):
                continue
            passed += 1
            target = node.args[0]
            if isinstance(target, ast.Attribute):
                continue  # a module's function, such as operator.pow
            obj = getattr(module, target.id, None) if isinstance(target, ast.Name) else None
            if obj is None or isinstance(obj, RepresentingFunction):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"a function value handed to checks._per_trial: {found}"
    assert passed >= 10


def test_arrays_are_serialized_only_by_spectral():
    # spectral.array_to_json is the one array encoding ({shape, re, im});
    # a module that writes its own "re"/"im" dict stores arrays a second way
    found, seen = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value in ("re", "im") for k in node.keys
            ):
                if path.name == "spectral.py":
                    seen += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"array encodings outside spectral.py: {found}"
    assert seen >= 1


#: The parameter names a function takes a stream stack by.
_STACK_PARAMS = {"rngs", "rng", "streams"}


def _stack_loops(tree) -> list[str]:
    """The functions outside ``class Streams`` that iterate over a stream-stack
    parameter (a ``for`` loop, a comprehension, ``enumerate`` or ``zip``) or
    subscript one, each as ``name:line`` of the site."""
    skip = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "Streams" for n in ast.walk(c)}
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or id(fn) in skip:
            continue
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs} & _STACK_PARAMS
        is_stack = {n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in params}.__contains__
        for node in ast.walk(fn):
            iterated = isinstance(node, (ast.For, ast.comprehension)) and is_stack(node.iter)
            paired = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("enumerate", "zip")
                and any(map(is_stack, node.args))
            )
            if iterated or paired or (isinstance(node, ast.Subscript) and is_stack(node.value)):
                found.add(f"{fn.name}:{getattr(node, 'iter', node).lineno}")
    return sorted(found)


def test_operator_draws_go_through_the_stream_stack():
    # an operator builder draws one step of every stream per call
    # (``Streams.uniform``, ``normal``, ``take``); a loop over the stack's
    # Generators outside ``Streams`` is a second draw path, and a slower one
    found = []
    for name in ("instances.py", "campaign.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
        found += [f"{name}:{site}" for site in _stack_loops(tree)]
    assert not found, f"loops over a stream stack outside Streams: {found}"


def test_verdicts_are_decided_only_by_links():
    # checks._links decides every side and chain link from one stacked
    # _eigvalsh call on the terms and gaps; a call of spectral.loewner_leq
    # in the checkers or the campaign is a second comparison path, with two
    # SVD calls per pair
    found = []
    for name in ("checks.py", "campaign.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                if getattr(fn, "id", None) == "loewner_leq" or getattr(fn, "attr", None) == "loewner_leq":
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"loewner_leq called outside checks._links: {found}"


def test_campaign_subscripts_builders_at_one_site():
    # every stack, of a campaign, of one replayed trial or of an acceptance
    # round, is built by ``campaign._build_trials``; a second ``BUILDERS[...]``
    # call site is a second build path, kept equal to the first only by tests
    tree = ast.parse((PACKAGE / "campaign.py").read_text(encoding="utf-8"), filename="campaign.py")
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "BUILDERS"
    ]
    assert len(sites) == 1, f"BUILDERS subscripted in campaign.py at lines {sites}"
