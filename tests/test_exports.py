"""The package's public export list."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import toricspec

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in toricspec.__all__ if not hasattr(toricspec, name)]
    assert missing == []


def test_import_leaves_scipy_spatial_unloaded():
    # limit.truncated_cone_mesh imports scipy.spatial inside the function:
    # at module level it would add about 80 ms to every import of the package
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, toricspec; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _uses(files, strings=False):
    """(names, attributes): every Name id and every Attribute attr in the files.

    With strings=True every string constant counts as both.
    """
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
                attrs.add(node.value)
    return names, attrs


def _names_used(files, strings=False):
    """Every Name and Attribute in the files, and with strings=True every string constant."""
    names, attrs = _uses(files, strings)
    return names | attrs


# exports kept public without a caller in the package or the benchmark
KEPT_PUBLIC = (
    "fiber_holonomy",           # the holonomy test of a quantized point, for callers and demo 01
    "hirzebruch",               # constructor of the Hirzebruch polygons F_a
    "polytope_to_json",         # I/O: writes what polytope_from_json reads
    "model_T",                  # closed form that criterion 5 compares against
    "model_T_prime",            # closed form that criterion 5 compares against
    "numeric_cone_spectrum",    # criterion 4's cone oracle
)


def test_every_export_has_a_caller():
    # a caller is a name or attribute in the package's modules or the
    # benchmark; docstrings, comments, the demos and the tests do not count,
    # and only the names in KEPT_PUBLIC may go without one
    files = [p for p in (ROOT / "src" / "toricspec").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    assert sorted(set(toricspec.__all__) - _names_used(files)) == sorted(KEPT_PUBLIC)


def test_every_definition_has_a_caller():
    # every function, method and class in the package is used in the package,
    # the demos or the benchmark, whose tracer wraps functions named in
    # strings; a method counts as used only through an attribute (or such a
    # string), so a local variable of the same name does not keep it alive;
    # dunders are exempt, and a use from the tests does not count
    sources = sorted((ROOT / "src" / "toricspec").glob("*.py"))
    names, attrs = _uses(sources + sorted((ROOT / "demos").glob("*.py")))
    bench_names, bench_attrs = _uses(sorted((ROOT / "perfbench").glob("*.py")), strings=True)
    names, attrs = names | bench_names, attrs | bench_attrs
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in (attrs if id(node) in methods else names | attrs)):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_parameter_is_read():
    # a parameter that no path of the body reads is dead; self and cls are
    # exempt, and a nested function's reads count for its enclosing one
    unread = []
    for path in sorted((ROOT / "src" / "toricspec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


def _is_dataclass(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


# a field whose name another class also stores, or defines as a property,
# is not shown read by an attribute of that name, which may be the other
# class's; each such field names one reader, "file:function" or
# "file:Class.method" in the package or the demos, that reads it
SHARED_FIELD_READERS = {
    ("ConeModel", "codim"): "limit.py:is_separable",
    ("Face", "codim"): "potential.py:_admissibility_sample",
    ("DelzantPolytope", "dim"): "polytope.py:vertices_and_faces",
    ("GuilleminPotential", "dim"): "potential.py:GuilleminPotential._ell_checked",
    ("Mesh", "dim"): "mesh.py:Mesh.__post_init__",
    ("PolynomialFn", "dim"): "potential.py:PolynomialFn.tensor",
    ("DelzantPolytope", "normals"): "potential.py:GuilleminPotential.of_polytope",
    ("DelzantPolytope", "offsets"): "potential.py:GuilleminPotential.of_polytope",
    ("GuilleminPotential", "normals"): "potential.py:GuilleminPotential.facet_values",
    ("GuilleminPotential", "offsets"): "potential.py:GuilleminPotential.facet_values",
    ("PotentialFamily", "phi"): "potential.py:PotentialFamily.tensor",
    ("PotentialFamily", "psi"): "potential.py:PotentialFamily.tensor",
    ("PotentialFamily", "boundary"): "potential.py:PotentialFamily.tensor",
    ("PotentialSpec", "phi"): "potential.py:ground_state",
    ("PotentialSpec", "psi"): "limit.py:cone_at",
}


def _functions(tree):
    """{name: node} for the module's functions and its classes' methods, as Class.method."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{fn.name}": fn for fn in node.body if isinstance(fn, ast.FunctionDef)})
    return found


def _reads(node):
    """Every attribute the node's code reads."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_stored_attribute_is_read():
    # every dataclass field and every self.<attr> an __init__ stores is read
    # as an attribute in the package, the demos or the benchmark, whose
    # strings count; a read from the tests does not, and a field that shares
    # its name with another class's is read only through its listed reader
    sources = sorted((ROOT / "src" / "toricspec").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + sorted((ROOT / "demos").glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    read |= _names_used(sorted((ROOT / "perfbench").glob("*.py")), strings=True)
    stored, owners = [], {}
    for path in sources:
        for cls in ast.walk(trees[path.name]):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = []
            if _is_dataclass(cls):
                fields += [(n.lineno, n.target.id) for n in cls.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    fields += [(n.lineno, n.attr) for n in ast.walk(fn)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                               and isinstance(n.value, ast.Name) and n.value.id == "self"]
                if isinstance(fn, ast.FunctionDef) and any(
                        getattr(d, "id", None) in ("property", "cached_property") for d in fn.decorator_list):
                    owners.setdefault(fn.name, set()).add(cls.name)
            stored += [(path.name, line, cls.name, attr) for line, attr in fields]
            for _, attr in fields:
                owners.setdefault(attr, set()).add(cls.name)
    shared = {(cls, attr) for _, _, cls, attr in stored if len(owners[attr]) > 1}
    # a stale entry fails as a missing one does
    assert sorted(SHARED_FIELD_READERS) == sorted(shared)
    unread = []
    for name, line, cls, attr in stored:
        if (cls, attr) in shared:
            file, reader = SHARED_FIELD_READERS[cls, attr].split(":")
            fn = _functions(trees[file]).get(reader)
            is_read = fn is not None and attr in _reads(fn)
        else:
            is_read = attr in read
        if not is_read:
            unread.append(f"{name}:{line} {cls}.{attr}")
    assert unread == []


def test_one_integer_rule_and_one_finite_rule():
    # "an integer, not a bool" is decided by errors._is_integer and "a finite
    # real" by errors._finite_float; a numbers.Integral or isfinite test
    # anywhere else in the package would be a second copy of a rule
    helpers = {"_is_integer", "_finite_float"}
    copies = []
    for path in sorted((ROOT / "src" / "toricspec").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name == "errors.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in helpers:
                    inside |= {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("Integral", "isfinite") and id(node) not in inside:
                copies.append(f"{path.name}:{node.lineno} {name}")
    assert copies == []


def test_one_home_for_each_input_rule():
    # "an integer >= low" and "a finite positive real" are errors._check_integer
    # and errors._check_positive; their message text anywhere else in the
    # package would be a second copy of a rule
    texts = ("must be an integer >=", "must be finite and positive")
    copies = [f"{path.name}:{number} {text!r}"
              for path in sorted((ROOT / "src" / "toricspec").glob("*.py")) if path.name != "errors.py"
              for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              for text in texts if text in line]
    assert copies == []


def test_every_error_class_has_a_test():
    # an exception class that no test names is a guard no test has seen
    # fire; the two base classes are exempt
    tree = ast.parse((ROOT / "src" / "toricspec" / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    named = _names_used(sorted((ROOT / "tests").rglob("*.py")))
    assert sorted(classes - named - {"ToricSpecError", "InputError"}) == []


DELZANT_KINDS = ("Unbounded", "EmptyInterior", "RedundantFacet", "NonPrimitiveNormal", "NotDelzant")


def test_one_exception_class_per_exit_code():
    # callers tell only an input error (exit 2) from a solver failure (exit 3),
    # so errors.py keeps those two classes and the five Delzant kinds that
    # `toricspec check` prints by name; every raise of a new exception in the
    # package names one of them or ValueError, and the message names the guard
    tree = ast.parse((ROOT / "src" / "toricspec" / "errors.py").read_text(encoding="utf-8"))
    classes = sorted(node.name for node in tree.body if isinstance(node, ast.ClassDef))
    assert classes == sorted(("ToricSpecError", "InputError") + DELZANT_KINDS)
    allowed = {"ValueError", "InputError", "ToricSpecError", *DELZANT_KINDS}
    others = []
    for path in sorted((ROOT / "src" / "toricspec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in allowed:
                    others.append(f"{path.name}:{node.lineno} {name}")
    assert others == []


def _import_aliases(tree):
    """{local name: dotted path} of every import in the module, at any depth."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # "import scipy.sparse" binds scipy; "import scipy.sparse as sp" binds sp
                root = a.name.split(".")[0]
                aliases[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node, aliases):
    """The imported dotted path an expression names (``splinalg.splu`` -> scipy.sparse.linalg.splu), or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value, aliases)
        return None if head is None else f"{head}.{node.attr}"
    return None


def _sites(path, found):
    """{"file:function"} of the functions (Class.method, outer.inner) holding a node found(node, aliases) accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _import_aliases(tree)
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if found(child, aliases):
                sites.add(f"{path.stem}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(tree, ())
    return sites


def _called(name):
    def found(node, aliases):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name
    return found


def _uses_sparse_linalg(node, aliases):
    # an import statement binds the name; any later load of that name is a use
    path = _dotted(node, aliases) if isinstance(node, (ast.Name, ast.Attribute)) else None
    return path is not None and (path == "scipy.sparse.linalg" or path.startswith("scipy.sparse.linalg."))


def test_one_assembly_path_and_one_solve_path():
    # every P1 matrix is scattered by Mesh.csr in assemble_p1 (every pair) or
    # OperatorFactory.operator (a mode's V_m mass form); every sparse
    # factorization runs in _lanczos_batch, which solve_pencils alone calls,
    # so solve_eigs, the sweep and the cone oracle share one path.  A level's
    # modes become dbar values in dbar_spectra alone (dbar_spectrum is its
    # batch of one), so no module but operator.py builds a factory, solves
    # its pencils or maps them.  Each listed site must hold the use, so a
    # renamed one fails too
    files = sorted((ROOT / "src" / "toricspec").glob("*.py"))
    rules = (
        (_called("csr"), {"operator:assemble_p1", "operator:OperatorFactory.operator"}),
        (_uses_sparse_linalg, {"operator:_lanczos_batch"}),
        (_called("_lanczos_batch"), {"operator:solve_pencils", "operator:_lanczos_batch"}),
        (_called("solve_pencils"), {"operator:solve_eigs", "operator:dbar_spectra"}),
        (_called("OperatorFactory"), {"operator:dbar_spectra"}),
        (_called("map_dbar"), {"operator:dbar_spectra"}),
        (_called("dbar_spectra"), {"operator:dbar_spectrum", "harness:run_sweep"}),
    )
    for found, allowed in rules:
        assert set().union(*(_sites(path, found) for path in files)) == allowed


def test_one_vertex_enumeration_per_validation():
    # validate_delzant and delzant_violations share one pass, _validated,
    # that enumerates the vertices once and builds the polytope its checks
    # read; the only other enumeration lists the lattice points of k P
    path = ROOT / "src" / "toricspec" / "polytope.py"
    sites = _sites(path, _called("_enumerate_vertices"))
    assert sites == {"polytope:_validated", "polytope:_lattice_points"}
