"""Structural checks on the package source."""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ngl"


def test_one_gauss_legendre_rule():
    # polar quadrature lives in surface.polar_quadrature; every caller uses it
    hits = [(path.name, line) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "leggauss" in line]
    assert len(hits) == 1, hits
    assert hits[0][0] == "surface.py"


def test_one_spline_construction():
    # periodic_spline fits the one global spline and evaluates it itself
    # (bispev on tensor grids, numpy fpbisp elsewhere); no private scipy
    # constructor builds a second spline
    def hits(word):
        return [(path.name, line) for path in sorted(SRC.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if re.search(rf"\b{word}\b", line)]
    found = hits("RectBivariateSpline")
    assert [name for name, _ in found] == ["schrodinger.py"], found
    assert hits("_from_tck") == []


def test_one_distance_sweep_call_site():
    # every geodesic-disk sup goes through the one swept stack, which
    # surface._geodesic_disk_sups scans; the heap march is the test oracle
    # only (tests/conftest.py)
    hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "_swept_distances(" in line and not line.lstrip().startswith("def ")]
    assert [name for name, _ in hits] == ["surface.py"], hits
    imports = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((path.name, node.module))
    assert not [hit for hit in imports if hit[1] == "heapq"], imports


def _is_op(node, op):
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def _computes_bilinear_blend(func):
    """Whether a function body writes a bilinear blend itself: three lerps
    a + t (b - a), each as one expression or as an in-place chain
    ``b -= a`` ... ``b += a``, or a weight product (1 - s)(1 - t)."""
    lerps = 0
    subtracted = set()
    for node in sorted((node for node in ast.walk(func)
                        if isinstance(node, (ast.BinOp, ast.AugAssign))),
                       key=lambda node: (node.lineno, node.col_offset)):
        if isinstance(node, ast.AugAssign):
            value = ast.dump(node.value)
            if isinstance(node.op, ast.Sub):
                subtracted.add(value)
            elif isinstance(node.op, ast.Add) and value in subtracted:
                lerps += 1
        elif _is_op(node, ast.Add):
            for base, term in ((node.left, node.right), (node.right, node.left)):
                if _is_op(term, ast.Mult):
                    diffs = [f for f in (term.left, term.right)
                             if _is_op(f, ast.Sub)]
                    if any(ast.dump(d.right) == ast.dump(base) for d in diffs):
                        lerps += 1
        elif _is_op(node, ast.Mult) and _is_op(node.left, ast.Mult):
            factors = (node.left.left, node.left.right, node.right)
            if sum(_is_op(f, ast.Sub) and getattr(f.left, "value", 0) == 1
                   for f in factors) >= 2:
                return True
    return lerps >= 3


def test_one_bilinear_blend():
    # periodic bilinear interpolation, the flat ring and the geodesic 4 x 4
    # refinement all call surface._blend; growth takes geodesic-disk sups
    # from surface._geodesic_disk_sups and knows nothing of the sweep's
    # windows (no blend, no phase table, no window slices)
    blends = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(func, ast.FunctionDef)
                    and _computes_bilinear_blend(func)):
                blends.append((path.name, func.name))
    assert blends == [("surface.py", "_blend")], blends
    surface = ast.parse((SRC / "surface.py").read_text(encoding="utf-8"))
    for caller in ("_bilinear_periodic", "_sup_disks_flat", "_refine"):
        [func] = [node for node in ast.walk(surface)
                  if isinstance(node, ast.FunctionDef) and node.name == caller]
        assert len(_calls_of(func, "_blend")) == 1, caller
    growth = ast.parse((SRC / "growth.py").read_text(encoding="utf-8"))
    for name in ("_refine", "_local_metric_sups", "_geodesic_disk_sups",
                 "_blend"):
        assert name not in _names_defined(growth), name
    for node in growth.body:
        if isinstance(node, ast.Assign):
            assert not _calls_of(node, "arange"), ast.unparse(node)
    assert not _calls_of(growth, "_swept_distances")
    assert len(_calls_of(growth, "_geodesic_disk_sups")) == 2
    for node in ast.walk(growth):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            for part in node.slice.elts:
                assert not (isinstance(part, ast.Slice)
                            and (part.lower or part.upper)), ast.unparse(node)


def test_one_sparse_factorization_and_eigensolve():
    # solve_spectrum makes the one eigendecomposition, a dense eigh on the
    # truncated Fourier (or the grid) operators; no sparse factorization,
    # operator wrapper or Krylov solve is left, and scipy's shift-invert
    # path lives only in tests/test_eigen.py, as the oracle
    solvers = ("eig", "eigh", "eigvals", "eigvalsh", "eigs", "eigsh", "lobpcg",
               "eig_banded", "eigh_tridiagonal", "splu", "spilu",
               "factorized")
    hits = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for word in ("splu", "eigsh", "LinearOperator", "ARPACK", "Arpack"):
            assert word not in text, (path.name, word)
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, (ast.Attribute, ast.Name))):
                    name = getattr(node.func, "attr", None) or node.func.id
                    if name in solvers:
                        hits.append((path.name, func.name, name))
    assert hits == [("eigen.py", "solve_spectrum", "eigh")], hits


def test_one_euclidean_disk_sup_kernel():
    # a torus grid field's sup over Euclidean disks, for one center or many,
    # is the padded gather in surface._sup_disks_flat with its disk-offset
    # and ring generators; growth defines no disk scan of its own
    for word in ("np.pad(", "_disk_offsets(", "_ring_points("):
        files = {path.name for path in sorted(SRC.glob("*.py"))
                 if word in path.read_text(encoding="utf-8")}
        assert files == {"surface.py"}, (word, files)
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    for gone in ("_grid_sup_disk", "_fine_lattice_in_disk",
                 "_count_coarse_samples_in_disk", "_delta_torus",
                 "_ring_offsets", "_bilinear_planar", "geodesic_distance"):
        assert gone not in defined, gone


def test_one_definition_of_each_resolution_formula():
    # "the disk spans 10 grid cells" has two formulas, 10 sqrt(...) over the
    # wavelength disk (growth.disk_grid_need) and over the localized patch
    # (schrodinger.patch_grid_need); the pipelines' checks and the CLI
    # pre-check call them and keep no copy of their own
    def is_sqrt(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "sqrt")

    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                        and 10 in (getattr(node.left, "value", None),
                                   getattr(node.right, "value", None))
                        and (is_sqrt(node.left) or is_sqrt(node.right))):
                    hits.append((path.name, func.name))
    assert sorted(hits) == [("growth.py", "disk_grid_need"),
                            ("schrodinger.py", "patch_grid_need")], hits


def test_one_window_rule_for_wavelength_disks():
    # a disk's window half-width, ceil(r / sqrt(q_minus) / h) + 3, has one
    # definition (growth._window_halves), which both growth_fields branches
    # and the curved growth_exponent call for the wrap check; the sweep is a
    # plain distance solver: no stop radius, no unreached-node placeholder,
    # no config key in its messages
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                hits += [(path.name, func.name)
                         for node in _calls_of(func, "ceil")
                         if "q_minus" in ast.unparse(node)]
    assert hits == [("growth.py", "_window_halves")], hits
    growth = ast.parse((SRC / "growth.py").read_text(encoding="utf-8"))
    for name in ("growth_fields", "growth_exponent"):
        [func] = [node for node in ast.walk(growth)
                  if isinstance(node, ast.FunctionDef) and node.name == name]
        assert len(_calls_of(func, "_window_halves")) == 1, name
    surface = (SRC / "surface.py").read_text(encoding="utf-8")
    for word in ("1e18", "stop", "1.05", "growth.k0"):
        assert word not in surface, word


def test_profile_parameters_live_in_surface():
    # each profile's parameter name, default and range is declared once, in
    # surface._PROFILES; the CLI reads q- and q+ off a probe metric
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    for word in ("amplitude", "_PROFILE_PARAMS", "_profile_sup", "symmetric"):
        assert word not in cli, word



REPO = SRC.parents[1]
CALLER_DIRS = ("src/ngl", "tests", "demos", "perfbench")


def _defaulted_parameters():
    """(module, qualified name, parameter, positional index or None) of every
    parameter with a default of every def in src/ngl; the index counts the
    arguments a call passes, so a method's self or cls is not counted."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node, None) for node in tree.body]
        while scopes:
            node, owner = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes.extend((child, node.name) for child in node.body)
                continue
            if not isinstance(node, ast.FunctionDef):
                continue
            scopes.extend((child, None) for child in node.body)
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner is not None and not static else 0
            qualname = f"{owner}.{node.name}" if owner else node.name
            for index in range(len(positional) - len(args.defaults),
                               len(positional)):
                found.append((path.stem, qualname, positional[index].arg,
                              index - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((path.stem, qualname, arg.arg, None))
    return sorted(found)


def _calls_by_name():
    """callee name -> [(positional count, keyword names, has *args,
    has **kwargs)] over every call in the package, its tests, demos and
    benchmark; a call ``f(...)`` or ``x.f(...)`` is filed under ``f``."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted((REPO / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(name, []).append((
                    len(node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(isinstance(a, ast.Starred) for a in node.args),
                    any(k.arg is None for k in node.keywords)))
    return calls


def test_every_defaulted_parameter_has_a_caller():
    # a default that no call in the package, its tests, demos or benchmark
    # overrides, by keyword or by position, is a constant dressed as a knob;
    # ``Name(...)`` is a call of ``Name.__init__``
    calls = _calls_by_name()
    params = _defaulted_parameters()
    unset = []
    for module, qualname, param, index in params:
        owner, _, name = qualname.rpartition(".")
        callee = owner if name == "__init__" else name
        if not any(param in keywords or double
                   or (index is not None and (starred or n_pos > index))
                   for n_pos, keywords, starred, double in calls.get(callee, ())):
            unset.append(f"{module}.{qualname}({param})")
    print(f"{len(params)} defaulted parameters in src/ngl, "
          f"{len(unset)} never set")
    assert not unset, f"{len(unset)} never set:\n" + "\n".join(unset)


def test_no_region_type_dispatch():
    # a disk is (center, r): sup_on_disk and lq_norm_on_disk take it
    # directly, with no one-variant region type to check
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for word in ("EuclideanDisk", "sup_on_region", "lq_norm_on_region"):
            assert word not in text, (path.name, word)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                assert not node.name.endswith(("Region", "Disk")), node.name


def _names_defined(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _calls_of(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]


def test_growth_exponents_are_one_array():
    # growth_fields returns (centers, betas) with no per-center sample
    # objects or one-pair wrapper; one log-ratio rule checks the inner sup,
    # takes the log ratio and clamps the noise floor for every caller
    tree = ast.parse((SRC / "growth.py").read_text(encoding="utf-8"))
    defined = _names_defined(tree)
    for gone in ("GrowthSample", "growth_field", "_clamp_beta"):
        assert gone not in defined, gone
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and _calls_of(node, "InfiniteGrowthError")]
    assert len(raises) == 1, [node.lineno for node in raises]


def test_tiling_is_one_level_loop():
    # run_tiling classifies level 0 and each level's children in one loop;
    # no separate first-level or refinement step copies the state
    tree = ast.parse((SRC / "tiling.py").read_text(encoding="utf-8"))
    defined = _names_defined(tree)
    for gone in ("init_tiling", "refine"):
        assert gone not in defined, gone
    sites = _calls_of(tree, "_square_is_rapid")
    assert len(sites) == 1, [node.lineno for node in sites]


def test_one_run_object_in_the_cli():
    # the commands read their inputs from one lazy run object (cli.Run):
    # the spectrum solve, the growth pass and the localization each have one
    # call site, and a command names its files through ResultRecord.artifact
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    for name in ("solve_spectrum", "analytic_spectrum", "growth_fields",
                 "localize"):
        sites = _calls_of(tree, name)
        assert len(sites) == 1, (name, [node.lineno for node in sites])
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        defined |= _names_defined(ast.parse(path.read_text(encoding="utf-8")))
    for gone in ("_get_spectrum", "_get_indexed_pair", "_indexed_pair",
                 "_localized_field", "add_artifact"):
        assert gone not in defined, gone
    growth = ast.parse((SRC / "growth.py").read_text(encoding="utf-8"))
    [verify] = [node for node in ast.walk(growth)
                if isinstance(node, ast.FunctionDef)
                and node.name == "verify_length_growth_bound"]
    assert "skip_unresolved" not in [arg.arg for arg in verify.args.args]
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_"):
            assert not _calls_of(func, "join"), func.name


def test_nodal_neighbour_search_from_scipy():
    # probe-segment pairs come from one k-d tree query, and singular-point
    # clusters from one connected-components call; neither a hand-built
    # spatial hash nor a union-find over the torus seams is left
    defined, sites, ndimage = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= _names_defined(tree)
        defined |= {target.id for node in ast.walk(tree)
                    if isinstance(node, ast.Assign) for target in node.targets
                    if isinstance(target, ast.Name)}
        sites += [(path.name, name) for name in ("cKDTree", "connected_components")
                  for _ in _calls_of(tree, name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                ndimage += [alias.name for alias in node.names
                            if alias.name.startswith("scipy.ndimage")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                ndimage += [name for name in [node.module] + names
                            if name.startswith("scipy.ndimage")]
    for gone in ("_bins", "_cell_coords", "_MIN_BINS", "_merge_wrap_labels"):
        assert gone not in defined, gone
    assert ndimage == []
    assert sorted(sites) == [("nodal.py", "cKDTree"),
                             ("nodal.py", "connected_components")], sites


def test_growth_and_nodal_load_neither_ndimage_nor_spatial():
    # scipy.spatial is imported by the probe kernels when they run, and
    # scipy.ndimage not at all
    env = dict(os.environ)
    src = str(SRC.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import sys, ngl.growth, ngl.nodal; print(sorted(name for name in "
              "('scipy.ndimage', 'scipy.spatial') if name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
