"""Every function, method and class defined in src/prodcodes is reached from
what the lab runs: the CLI entry point, module-level code in src, anything
perfbench references, or one of the named oracles below that the acceptance
criteria, or the one test named with it, run against the package's own code.  A reached definition reaches
every name its body references (matched by bare name: a call, an attribute
or an import), and a reached class reaches its dunder methods.  A name a
function binds in its own body (a parameter, or an assignment, loop, with or
comprehension target) is local there, not a reference.  A test's reference
alone keeps nothing alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prodcodes"

# module.qualname -> why the lab runs it: the entry point, and the oracles
# that the acceptance criteria, or the test named, run against the package's
# own code
ROOTS = {
    "cli.main": "the `prodcodes` entry point",
    "codes.dual_tensor": "criterion 2 checks tensor duality against it",
    "codes.LinearCode.same_subspace": "criterion 2's code equality",
    "codes.ltc_soundness_estimate": "criterion 10's local-testability estimate",
    "expansion.epsilon_closure": "criterion 7's epsilon-closed sets",
    "expansion.inner_generated_test":
        "test_expansion.py::test_inner_generated_ptRS_closed_sets checks the "
        "maximally-recoverable claim on epsilon-closed sets through it",
    "transversal.multiplication_property": "criterion 8's multiplication property",
    "transversal.smallest_window_m": "criterion 9's smallest window",
    "transversal.TransRsParams.gate_qudits": "criterion 8's gate support",
    "gf.Field.elements": "criterion 1 enumerates GF(q) through it",
    "gf.Field.trace": "criterion 1's trace linearity and onto-GF(p) checks",
    "gf.Field.frobenius": "criterion 1's Frobenius invariance of the trace",
    "gf.Field.generator": "the README's generator convention, pinned over 614 fields",
    "poly.uni_ext_gcd": "criterion 1's extended-gcd suite",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reference(node):
    """The bare name a Name, Attribute or import alias node references."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _local_names(node):
    """The names a function binds in its own body: its parameters and every
    name it stores (assignment, loop, with and comprehension targets), not
    those of the definitions nested in it."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    a = node.args
    out = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    stack = list(node.body)
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        if not isinstance(n, _DEFS):
            stack += ast.iter_child_nodes(n)
    return out


def _body_names(node):
    """The names a definition's body (or a module's top-level code)
    references: not its annotations, nor its local names, nor the bodies of
    the definitions nested in it, only what their enclosing scope evaluates
    (decorators, defaults, bases); a module's own imports bind names but use
    none."""
    local = _local_names(node)
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        bound_here = isinstance(n, ast.Name) and n.id in local
        if not bound_here and not (isinstance(node, ast.Module) and isinstance(n, ast.alias)):
            out.add(_reference(n))
        if n is not node and isinstance(n, _DEFS):
            stack += n.decorator_list
            if isinstance(n, ast.ClassDef):
                stack += n.bases + n.keywords
            else:
                stack += n.args.defaults + [d for d in n.args.kw_defaults if d]
            continue
        for field, value in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                stack += [v for v in (value if isinstance(value, list) else [value])
                          if isinstance(v, ast.AST)]
    return out


def _perfbench_names(tree):
    """Every name a perfbench module references anywhere, including the
    dotted names it hooks by string ("gf.Field.trace")."""
    out = {_reference(n) for n in ast.walk(tree)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(part for part in n.value.split(".") if part.isidentifier())
    return out


def _definitions():
    """module.qualname -> (def node, qualname of its class or None)."""
    defs = {}

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, _DEFS):
                qual = f"{prefix}.{node.name}"
                defs[qual] = (node, cls)
                visit(node.body, qual, qual if isinstance(node, ast.ClassDef) else None)

    for path in sorted(SRC.rglob("*.py")):
        visit(_parse(path).body, path.stem, None)
    return defs


def _unreached(defs):
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        names |= _body_names(_parse(path))
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        names |= _perfbench_names(_parse(path))
    reached, queue = set(), list(ROOTS)
    while queue:
        qual = queue.pop()
        if qual in reached:
            continue
        reached.add(qual)
        names |= _body_names(defs[qual][0])
        # a reached class reaches its dunder methods; a reached name, every
        # definition of that bare name
        for q, (node, cls) in defs.items():
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if q not in reached and (cls == qual and dunder or node.name in names):
                queue.append(q)
    return sorted(set(defs) - reached)


def test_every_definition_in_src_is_referenced():
    defs = _definitions()
    assert set(ROOTS) <= set(defs)
    assert _unreached(defs) == []


# parameters with a default in the function signatures of src/prodcodes: the
# values a caller may set.  A change that adds an option raises this number
# here, in the diff, rather than silently.
SETTABLE_VALUES = 27


def test_settable_values_do_not_grow():
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                count += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    assert count <= SETTABLE_VALUES
