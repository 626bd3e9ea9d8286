"""bmcut's one-rule invariants: one AST scanner and one table, RULES.

A row names the nodes it looks for (`match`), the modules it scans and the
scopes, "module.function", that must hold them: exactly those, so an
empty set means nowhere.  A scope is the outermost top-level function around
a node, or <module> outside every function.  A row with `within` looks only
inside those functions, and each of them must exist.  A new one-rule
invariant is a new row.  (test_imports.py keeps the import-hygiene checks,
which compare names across files.)
"""

import ast
from collections import namedtuple
from pathlib import Path

import pytest

import bmcut

SRC = Path(bmcut.__file__).resolve().parent
SOURCES = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def scopes(source: str, match) -> set[str]:
    """The outermost top-level function, or <module>, around each node of
    the source that `match` accepts."""
    found = set()

    def visit(node, where):
        if where == "<module>" and isinstance(node, ast.FunctionDef):
            where = node.name
        if match(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def named(node, names) -> bool:
    """A name read, bound or imported, bare or as an attribute."""
    return ((isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name in names))


def calls(*funcs):
    return lambda node: (isinstance(node, ast.Call)
                         and ast.unparse(node.func) in funcs)


def integer_check(node) -> bool:
    """operator.index, or isinstance(..., bool)."""
    return calls("operator.index", "index")(node) or (
        calls("isinstance")(node) and len(node.args) == 2
        and "bool" in ast.unparse(node.args[1]))


def layout_read(node) -> bool:
    """A CSR attribute, or a .toarray() call."""
    return named(node, {"indptr", "indices", "data"}) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "toarray")


def loads(names):
    return lambda node: (isinstance(node, ast.Name) and node.id in names
                         and isinstance(node.ctx, ast.Load))


def operand(name):
    """`name` as an operand of arithmetic: unary, binary or augmented."""
    arithmetic = (ast.BinOp, ast.UnaryOp, ast.AugAssign)
    return lambda node: isinstance(node, arithmetic) and any(
        named(getattr(node, side, None), {name})
        for side in ("left", "right", "operand", "value"))


Row = namedtuple("Row", "match modules scopes within", defaults=[()])


def others(owner: str) -> tuple:
    return tuple(m for m in SOURCES if m != owner)


FROMNUMERIC = calls(*(f"np.{f}" for f in (
    "argmax", "argmin", "cumsum", "searchsorted", "sum", "max", "take",
    "einsum")))

RULES = {
    # every |g_i| and <sigma_i, g_i> in bcm comes from one formula, so a
    # stored norm equals a fresh one bit for bit
    "row_stats": Row(calls(*(m + f for m in ("np.", "numpy.", "math.", "")
                             for f in ("vecdot", "sqrt"))),
                     ("bcm",), {"bcm._row_stats"}),
    # numpy's fromnumeric wrappers add dispatch to a step of about 12 us
    # (ROADMAP.md, "Where the time goes"); their ndarray methods give the
    # same bits, and einsum's row dots are np.vecdot's, in _row_stats
    "fromnumeric": Row(FROMNUMERIC, ("bcm",), set(), (
        "_row_stats", "select_coordinate", "bcm_step", "block_sweep",
        "drive")),
    # the same for the metric, which drive reads at every record and, under
    # bcm2, at each pick at or under the escape threshold
    "fromnumeric_metric": Row(FROMNUMERIC, ("manifold",), set(),
                              ("grad_metric_sq", "metric_term")),
    # errors.check_count is the one integer check
    "integer_check": Row(integer_check, others("errors"), set()),
    # leading_pair is the one dense eigensolve; certify.lanczos and
    # _top_ritz_pair the one recurrence and the one tridiagonal solve
    "eigensolvers": Row(lambda node: named(node, {
        "eigh", "daxpy", "dstebz", "dstein", "eigh_tridiagonal"}),
        others("certify"), set()),
    # bcm2's numbers have one derivation: a header holds the floats a run uses
    "epsilon_constants": Row(loads({"THRESHOLD_DENOM", "STEP_DENOM",
                                    "ASCENT_DENOM", "EPOCH_CAP_NUM"}),
                             tuple(SOURCES), {"escape._check_epsilon"}),
    # only problem.py knows the storage
    "layout": Row(layout_read, others("problem"), set()),
    # both recurrences run on operators over instance.unit, so the floor is
    # one number for either
    "breakdown_tol": Row(operand("BREAKDOWN_TOL"), tuple(SOURCES), set()),
}


def hits(row, source: str) -> set[str]:
    found = scopes(source, row.match)
    return found & set(row.within) if row.within else found


def breaches(row, sources: dict) -> set[str]:
    """Scopes that break the row, and the missing functions it names."""
    found, defined = set(), set()
    for m in row.modules:
        found |= {f"{m}.{s}" for s in hits(row, sources[m])}
        defined |= {f"{m}.{s}" for s in scopes(
            sources[m], lambda node: isinstance(node, ast.FunctionDef))}
    wanted = {f"{m}.{f}" for m in row.modules for f in row.within}
    return (found ^ row.scopes) | (wanted - defined)


@pytest.mark.parametrize("rule", RULES)
def test_rule_holds(rule):
    assert breaches(RULES[rule], SOURCES) == set()


SNIPPETS = [   # (rule, source, the scopes its row finds there)
    ("row_stats", "x = np.sqrt(2.0)\ndef _row_stats(g):\n    return np.vecdot("
     "g, g)\ndef block_sweep(gi):\n    def inner():\n        return math."
     "sqrt(gi @ gi)\n    return inner()\ndef other(x):\n    return np.linalg."
     "norm(x) + x.sqrt()\n", {"<module>", "_row_stats", "block_sweep"}),
    ("fromnumeric", "def drive(c):\n    return np.argmax(c.norms) + c.inner."
     "argmax()\ndef bcm_step(g):\n    return np.take(g, [0]), np.zeros(2)\n"
     "def _row_stats(g):\n    return np.einsum('ij,ij->i', g, g)\ndef other("
     "x):\n    return np.sum(x)\n", {"drive", "bcm_step", "_row_stats"}),
    ("fromnumeric", "def drive(c):\n    return c.inner.argmax() + np.zeros(2)"
     "\n", set()),
    ("fromnumeric_metric", "def grad_metric_sq(c):\n    return np.sum(c)\n"
     "def metric_term(n, i):\n    return n * n - i * i\ndef other(x):\n    "
     "return np.sum(x)\n", {"grad_metric_sq"}),
    ("integer_check", "def a(i):\n    return operator.index(i)\ndef b(i):\n  "
     "  return -1 if isinstance(i, bool) else i\ndef c(x):\n    return "
     "isinstance(x, (int, np.bool_))\ndef d(x):\n    return isinstance(x, "
     "float)\n", {"a", "b", "c"}),
    ("eigensolvers", "from scipy.linalg.blas import daxpy as f\ndef a(m):\n "
     "   return scipy.linalg.eigh(m)\ndef b():\n    dstein = None\ndef c():\n"
     "    # dstebz\n    return 'dstebz'\n", {"<module>", "a", "b"}),
    ("epsilon_constants", "STEP_DENOM = 15.0\nx = 2 * EPOCH_CAP_NUM\ndef "
     "_check_epsilon(e):\n    return e / STEP_DENOM\ndef run_bcm2(e):\n    "
     "def inner():\n        return e / ASCENT_DENOM\n    return inner()\ndef "
     "other(e):\n    return e.STEP_DENOM + STEP\n",
     {"<module>", "_check_epsilon", "run_bcm2"}),
    ("layout", "def lo(i):\n    return inst.rows.indptr[i]\ndef v():\n    "
     "return rows.data.reshape(n, n - 1)\ndef a():\n    return inst.rows."
     "toarray()\ndef b(x):\n    return inst.rows @ x\n", {"lo", "v", "a"}),
    ("breakdown_tol", "def a(b, u):\n    return b <= BREAKDOWN_TOL * u\ndef "
     "c(b):\n    return b <= certify.BREAKDOWN_TOL\ndef d(t):\n    t /= "
     "certify.BREAKDOWN_TOL\ndef e():\n    return -BREAKDOWN_TOL\n",
     {"a", "d", "e"})]


@pytest.mark.parametrize("rule, source, found", SNIPPETS,
                         ids=[case[0] for case in SNIPPETS])
def test_scanner(rule, source, found):
    assert hits(RULES[rule], source) == found


PLANTS = [   # (rule, module, text, its replacement, the breach it makes)
    ("row_stats", "bcm", "    ni = norms.item(i)\n",
     "    ni = math.sqrt(np.vecdot(g[i], g[i]))\n", {"bcm.bcm_step"}),
    ("fromnumeric", "bcm", "int((cache.norms - cache.inner).argmax())",
     "int(np.argmax(cache.norms - cache.inner))", {"bcm.select_coordinate"}),
    ("fromnumeric", "bcm", "def block_sweep(", "def sweep(",
     {"bcm.block_sweep"}),
    ("fromnumeric_metric", "manifold", "np.maximum(terms, 0.0).sum()",
     "np.sum(np.maximum(terms, 0.0))", {"manifold.grad_metric_sq"}),
    ("integer_check", "bcm", 'check_count("row index", i, 0, instance.n)',
     "operator.index(i)", {"bcm.bcm_step"}),
    ("eigensolvers", "escape", "import numpy as np\n",
     "import numpy as np\nfrom scipy.linalg import eigh\n",
     {"escape.<module>"}),
    ("epsilon_constants", "escape", "    f_before = cache.objective()\n",
     "    t = epsilon / (STEP_DENOM * instance.one_norm)\n"
     "    f_before = cache.objective()\n", {"escape.second_order_step"}),
    ("layout", "certify", "(instance.rows @ x)",
     "(instance.rows.toarray() @ x)", {"certify.cut_value"}),
    ("breakdown_tol", "escape", "beta <= BREAKDOWN_TOL:",
     "beta <= BREAKDOWN_TOL * unit:", {"escape.lanczos_leading"})]


@pytest.mark.parametrize("rule, module, old, new, breach", PLANTS,
                         ids=[case[0] for case in PLANTS])
def test_rule_fails_on_planted_module(rule, module, old, new, breach):
    planted = SOURCES[module].replace(old, new)
    assert planted != SOURCES[module]
    assert breaches(RULES[rule], {**SOURCES, module: planted}) == breach
