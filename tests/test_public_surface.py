"""The public surface: every name `annulus_harmonics` exports has a use,
and the README's quick tour runs and shows what its comments say."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import sys
from pathlib import Path

import annulus_harmonics
from annulus_harmonics.cli import main
from annulus_harmonics.reports import CHECKS
from test_cli import readme_command_lines

ROOT = Path(__file__).resolve().parents[1]

# Every parameter with a default of a public function, class or method of
# the package, with the program caller that passes another value.  A
# parameter that only tests set is a fixed size of the program and belongs
# in a module constant; a new one is listed here together with its caller.
DEFAULTED = {
    "series.HarmonicSeries": ("a b a0 b0", "the coefficients: sampling.random_series"),
    "series.HarmonicSeries.from_coeffs": ("N a b a0 b0",
                                          "the order and coefficients: series.extremal_map"),
    "series.circle_grid_fields": ("fields", "sampling.injectivity_probe"),
    "series.require_radii": ("members", "series.circle_grid_fields and a stack's jet"),
    "quadrature.radial_integrate": ("lam", "operators.k_functional"),
    "sampling.SamplerConfig": ("N decay", "cli._cmd_sample"),
    "sampling.perturb_extremal": ("renormalize", "bounds.uniqueness_probe"),
    "reports.run_suite": ("tol", "cli verify, with the --tol-* overrides"),
    **{f"reports.run_{suite}": ("tol", "reports.run_suite")
       for suite in ("identities", "subsolution", "kfunctional", "certificates", "schottky")},
    "cli.main": ("argv", "bench/workloads.py, which runs verify in process"),
}


def defaulted_parameters() -> dict[str, set[str]]:
    """The parameters with a default of every public function, class
    (its constructor) and method defined in the package's modules."""
    found = {}
    for info in pkgutil.iter_modules(annulus_harmonics.__path__):
        module = importlib.import_module(f"annulus_harmonics.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(obj, attr))
                            for attr, value in vars(obj).items()
                            if not attr.startswith("_") and (
                                inspect.isfunction(value)
                                or isinstance(value, (classmethod, staticmethod)))]
            for qualname, member in members:
                try:
                    parameters = inspect.signature(member).parameters.values()
                except (TypeError, ValueError):  # an exception class
                    continue
                names = {p.name for p in parameters if p.default is not p.empty}
                if names:
                    found[f"{info.name}.{qualname}"] = names
    return found


def test_every_defaulted_parameter_has_a_program_caller():
    assert defaulted_parameters() == {
        qualname: set(names.split()) for qualname, (names, _) in DEFAULTED.items()}


def test_every_exported_name_is_used_by_the_package_the_benchmark_or_the_readme():
    """A name in __all__ is referenced in src/ outside its own definition
    and __init__.py, or in bench/, or in README.md."""
    package = [p.read_text() for p in (ROOT / "src" / "annulus_harmonics").glob("*.py")
               if p.name != "__init__.py"]
    elsewhere = "\n".join(p.read_text() for p in [*(ROOT / "bench").rglob("*.py"),
                                                   ROOT / "README.md"])
    unused = []
    for name in annulus_harmonics.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        in_package = any(word.search(line) and not definition.match(line)
                         for text in package for line in text.splitlines())
        if not (in_package or word.search(elsewhere)):
            unused.append(name)
    assert unused == []


def test_every_exported_error_type_is_raised_in_the_package():
    """Each exported subclass of ToolkitError is raised by a `raise`
    statement under src/: no dead error type stays exported."""
    raised = set()
    for path in (ROOT / "src" / "annulus_harmonics").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc))
    errors = {name for name in annulus_harmonics.__all__
              if inspect.isclass(obj := getattr(annulus_harmonics, name))
              and issubclass(obj, annulus_harmonics.ToolkitError)
              and obj is not annulus_harmonics.ToolkitError}
    assert errors and errors - raised == set()


# The exported callables that neither `verify all --seed 1 --trials 100` nor
# a command line of the README enters, with what holds each: a benchmark
# workload that calls it (changed only in a benchmark change), or the
# ROADMAP item that brings it into `verify`.  A name that nothing holds
# gains a check or a command that reaches it, or goes; the set may only
# shrink.
UNREACHED = {
    "circular_mean": "the circle-dense workload (bench/workloads.py)",
    "quadratic_mean_numeric": "the circle-dense workload (bench/workloads.py)",
    "dirichlet_energy": "the circle-dense workload (bench/workloads.py)",
    "variance_subsolution_min": "the radial-profile workload (bench/workloads.py)",
    "evolution_lower_bound": "ROADMAP item 4 (C05 as a verify criterion)",
    "uniqueness_probe": "ROADMAP item 4 (C10 as a verify criterion)",
    "perturb_extremal": "ROADMAP item 4 (through uniqueness_probe)",
    "UniquenessReport": "ROADMAP item 4 (what uniqueness_probe returns)",
}


def own_code(obj) -> set:
    """The code objects a call of `obj` enters: a function's own, or those
    of every function, method and property a class defines."""
    if not inspect.isclass(obj):
        return {inspect.unwrap(obj).__code__}
    functions = [getattr(v, "__func__", getattr(v, "fget", v)) for v in vars(obj).values()]
    return {inspect.unwrap(f).__code__ for f in functions if inspect.isfunction(inspect.unwrap(f))}


def test_unreached_exports_are_the_known_ones(tmp_path, monkeypatch):
    """Under sys.setprofile, `verify all --seed 1 --trials 100` and every
    README command line, in the README's order, enter the code of every
    exported callable but UNREACHED.
    The exception types have no code of their own: they are raised, not
    called."""
    exports = {name: getattr(annulus_harmonics, name) for name in annulus_harmonics.__all__}
    callables = {name: own_code(obj) for name, obj in exports.items()
                 if not (inspect.isclass(obj) and issubclass(obj, BaseException))}
    assert all(callables.values())
    argvs = [["verify", "all", "--seed", "1", "--trials", "100"], *readme_command_lines()]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.chdir(tmp_path)
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs)
    assert {name for name, code in callables.items() if not code & entered} == set(UNREACHED)


def quick_tour() -> tuple[dict, dict]:
    """Run the python block under "## Quick tour" in README.md, statement by
    statement: the namespace it leaves, and the value of each bare
    expression, keyed by its source (as ast.unparse writes it)."""
    section = (ROOT / "README.md").read_text().split("\n## Quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, {}
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            shown[ast.unparse(statement.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    return namespace, shown


def test_readme_quick_tour_shows_what_its_comments_say():
    namespace, shown = quick_tour()
    assert shown["mean_outer_radius(critical, 2.0)"] == namespace["nitsche_bound"](2.0) == 1.25
    assert shown["(report.rule, report.margin, report.verdict)"] == (
        "initial-speed", 0.0, "pass")
    for k in ("k_quadrature(h, 0.5, 2.0)", "k_endpoint(h, 0.5, 2.0)"):
        assert abs(shown[k]) < 1e-12
    jet = shown["U.jet(1.7)"]
    U = namespace["U"]
    assert jet == (U.value(1.7), U.deriv1(1.7), U.deriv2(1.7))
    assert shown["(U.value(1.7), U.deriv1(1.7))"] == jet[:2]
    assert all(type(x) is float for x in jet)
    lhs, rhs = shown["evolution_lower_bound(h, 2.0)"]
    assert math.isclose(lhs, 1.5, rel_tol=1e-12) and math.isclose(rhs, 1.5, rel_tol=1e-12)
    assert abs(shown["uniqueness_probe(2.0).loglog_slope"] - 2.0) < 0.1


def test_readme_names_every_check_and_each_fixed_tolerance():
    """Every row of reports.CHECKS is named under "Tests and acceptance
    suite", and the sentence on fixed tolerances names exactly the rows
    whose tolerance is a number rather than a flag's key."""
    text = " ".join((ROOT / "README.md").read_text().split())
    section = text.split("## Tests and acceptance suite", 1)[1].split("## ", 1)[0]
    assert [name for name in CHECKS if f"`{name}`" not in section] == []
    sentence = text.split("tolerance that no flag changes:", 1)[1].split(". ", 1)[0]
    assert sorted(re.findall(r"`([a-z0-9-]+)`", sentence)) == sorted(
        name for name, row in CHECKS.items() if not isinstance(row.tolerance, str))
