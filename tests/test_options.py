"""Every option of the library is set by some caller.

A defaulted parameter or defaulted dataclass field that no call in ``src/``,
``tests/`` or ``perfbench/`` sets is a configuration that nothing runs; it
belongs in a constant. This module parses the sources and matches each such
option to its call sites by name: ``name(...)`` and ``obj.name(...)`` count
for every callable called ``name``, ``ClassName(...)``, ``cls(...)`` and
``super().__init__(...)`` for the class's ``__init__`` or its fields, and
``dataclasses.replace(obj, field=...)`` for a field of any dataclass. A call
sets an option when it passes it by keyword or by position, or when it
unpacks ``*args`` at or before the option's position or ``**kwargs`` at all.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mcmccalc"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


class Option(NamedTuple):
    where: str            # e.g. "kernels.BalancingFunction.custom"
    callee: str           # the name a call site uses
    name: str
    position: Optional[int]  # index among the positional arguments, if any
    field: bool           # a dataclass field, which dataclasses.replace also sets


def _decorators(node) -> Set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _parameter_options(where: str, callee: str, fn: ast.FunctionDef,
                       bound: bool) -> List[Option]:
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    options = [Option(where, callee, arg.arg, i, False)
               for i, arg in enumerate(positional) if i >= first_default]
    options += [Option(where, callee, arg.arg, None, False)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return options


def _field_options(where: str, cls: ast.ClassDef) -> List[Option]:
    options, position = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        if defaulted:
            options.append(Option(where, cls.name, stmt.target.id, position, True))
        position += 1
    return options


def _sources(folder: Path) -> Dict[str, str]:
    """The Python sources under ``folder``, keyed by dotted path without suffix."""
    return {".".join(path.relative_to(folder).with_suffix("").parts): path.read_text()
            for path in sorted(folder.rglob("*.py"))}


def library_options(library: Dict[str, str]) -> List[Option]:
    """Every defaulted parameter and dataclass field of a library callable,
    from the library's sources keyed by module name."""
    options: List[Option] = []
    for module, text in library.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                options += _parameter_options(f"{module}.{node.name}", node.name,
                                              node, bound=False)
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in _decorators(node):
                    options += _field_options(f"{module}.{node.name}", node)
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    init = item.name == "__init__"
                    callee = node.name if init else item.name
                    where = f"{module}.{node.name}" + ("" if init else f".{item.name}")
                    bound = "staticmethod" not in _decorators(item)
                    options += _parameter_options(where, callee, item, bound)
    return options


class _CallScan(ast.NodeVisitor):
    """Collect, per callee name, what each call passes."""

    def __init__(self) -> None:
        self.classes: List[ast.ClassDef] = []
        self.calls: Dict[str, List[Tuple[int, bool, Set[str], bool]]] = defaultdict(list)
        self.replaced: Set[str] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def _callee(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            if func.id == "cls" and self.classes:
                return self.classes[-1].name
            return func.id
        if isinstance(func, ast.Attribute):
            value = func.value
            if (func.attr == "__init__" and isinstance(value, ast.Call)
                    and getattr(value.func, "id", "") == "super" and self.classes
                    and self.classes[-1].bases):
                return ast.unparse(self.classes[-1].bases[0]).split(".")[-1]
            return func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        callee = self._callee(node.func)
        if callee is not None:
            positional, star = 0, False
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    star = True
                    break
                positional += 1
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            double_star = any(kw.arg is None for kw in node.keywords)
            self.calls[callee].append((positional, star, keywords, double_star))
            if callee == "replace" and node.args:
                self.replaced |= keywords
        self.generic_visit(node)


def _is_set(option: Option, scan: _CallScan) -> bool:
    for positional, star, keywords, double_star in scan.calls.get(option.callee, ()):
        if double_star or option.name in keywords:
            return True
        if option.position is not None and (option.position < positional or star):
            return True
    return option.field and option.name in scan.replaced


def unset_options(library: Dict[str, str], callers: Iterable[str]) -> List[str]:
    """The library options that no caller source sets, as ``module.callable(name)``."""
    scan = _CallScan()
    for text in callers:
        scan.visit(ast.parse(text))
    return sorted(f"{o.where}({o.name})" for o in library_options(library)
                  if not _is_set(o, scan))


SAMPLE = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2):
    return a


@dataclass
class D:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w: int = field(default=0, init=False)


class Base:
    def __init__(self, p=1, o=0):
        self.p, self.o = p, o

    @classmethod
    def make(cls, q=3):
        return cls(o=q)


class Child(Base):
    def __init__(self):
        super().__init__(2)

    @staticmethod
    def s(r=4):
        return r
'''
# Base(p) and Base(o) are set inside the sample, through super() and cls()
SAMPLE_OPTIONS = ["sample.Base.make(q)", "sample.Child.s(r)", "sample.D(y)", "sample.D(z)",
                  "sample.f(b)", "sample.f(c)"]


@pytest.mark.parametrize("caller, now_set", [
    ("", []),
    ("f(0, 5)", ["sample.f(b)"]),
    ("f(0, c=1)", ["sample.f(c)"]),
    ("f(*args)", ["sample.f(b)"]),
    ("f(**kwargs)", ["sample.f(b)", "sample.f(c)"]),
    ("D(1, 2)", ["sample.D(y)"]),
    ("dataclasses.replace(d, z=[1])", ["sample.D(z)"]),
    ("obj.make(q=1)", ["sample.Base.make(q)"]),
    ("Child.s(5)", ["sample.Child.s(r)"]),
    ("Child.make()", []),
])
def test_the_scan_matches_each_way_of_setting_an_option(caller, now_set):
    library = {"sample": SAMPLE}
    unset = unset_options(library, [SAMPLE, caller])
    assert unset == [o for o in SAMPLE_OPTIONS if o not in now_set]


def test_the_scan_sees_the_library_options():
    names = {f"{o.where}({o.name})" for o in library_options(_sources(LIBRARY))}
    assert "measures.SignedGridFunction(description)" in names
    assert "kernels.HastingsKernel(validate)" in names
    assert len(names) > 100


def test_every_option_is_set_by_some_call():
    callers = [text for folder in CALLERS for text in _sources(folder).values()]
    unset = unset_options(_sources(LIBRARY), callers)
    assert not unset, ("options that no call in src/, tests/ or perfbench/ sets "
                       "(make each a constant): " + ", ".join(unset))


# The options that only tests set: a paper tool's knob, or a sampler or
# certificate setting that tests vary to reach a case.  A new option that no
# call in src/ or perfbench/ sets belongs in a constant, and an entry whose
# option is gone or now set by the library must leave: the list only shrinks.
TEST_ONLY = [
    "calculus.uniform_boundedness_scan(t_nodes)",
    "calculus.verify_ftc_intrinsic(s_nodes)",
    "calculus.verify_ftc_intrinsic(t_nodes)",
    "derivative.fd_directional_derivative(k)",
    "derivative.iterated_derivative_limit_check(k_max)",
    "derivative.spike_density(halfwidth_cells)",
    "ergodicity.check_drift(kappa)",
    "ergodicity.check_minorization(method)",
    "ergodicity.check_v_moment_growth(cert)",
    "ergodicity.check_v_moment_growth(checkpoints)",
    "ergodicity.check_v_moment_growth(n_reps)",
    "ergodicity.check_v_moment_growth(seed)",
    "ergodicity.check_v_moment_growth(x0)",
    "ergodicity.poisson_resolvent(rate)",
    "ergodicity.poisson_resolvent(weight)",
    "ergodicity.resolvent_bound_margin(alpha)",
    "feynman_kac.fk_decomposition_check(level)",
    "feynman_kac.smcmc_variance_recursion(centering)",
    "kernels.BalancingFunction.custom(tag)",
    "kernels.ProposalKernel(bounded)",
    "measures.GridDensity.from_callable(description)",
    "measures.gaussian_density(positive)",
    "samplers.SchemeConfig(weight)",
    "samplers.check_adaptation_conditions(family)",
    "samplers.check_adaptation_conditions(reference)",
    "samplers.check_adaptation_conditions(scan_points)",
    "samplers.check_adaptation_conditions(weight)",
]


def test_no_new_option_is_set_only_by_tests():
    callers = [text for folder in CALLERS if folder.name != "tests"
               for text in _sources(folder).values()]
    unset = unset_options(_sources(LIBRARY), callers)
    assert sorted(unset) == sorted(TEST_ONLY), (
        "options that only tests set (make each a constant the tests patch): "
        + ", ".join(sorted(set(unset) - set(TEST_ONLY)))
        + "; listed but no longer test-only (remove from TEST_ONLY): "
        + ", ".join(sorted(set(TEST_ONLY) - set(unset))))
