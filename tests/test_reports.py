"""The one verdict rule of :class:`semidecay.reports.Check`, and a scan of
the package that keeps it the only one."""

import ast
import importlib
import pathlib

import semidecay
from semidecay.errors import MagnitudeGuardError
from semidecay.reports import FAIL, INDETERMINATE, PASS, Check, RaisedCheck

PACKAGE = pathlib.Path(semidecay.__file__).parent


class _Result(Check):
    def __init__(self, witness):
        self.witness = witness


def test_a_check_passes_exactly_without_a_witness():
    assert _Result(None).verdict == PASS
    assert _Result("why").verdict == FAIL
    indeterminate = _Result("why")
    indeterminate.unmet = INDETERMINATE
    assert indeterminate.verdict == INDETERMINATE


def test_raised_check_is_indeterminate_with_its_error():
    error = MagnitudeGuardError("too large")
    raised = RaisedCheck(error)
    assert (raised.verdict, raised.witness, raised.error) == (INDETERMINATE, "too large", error)
    assert raised.constants() == {}


def _defines(body, name):
    """Whether a class body defines ``name``: a field, a class attribute,
    a property or method, or an assignment to ``self.<name>``."""
    for node in body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id == name:
                return True
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
                return True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name or any(
                    isinstance(t, ast.Attribute) and t.attr == name
                    for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                    for t in sub.targets):
                return True
    return False


def _catches(handler, name):
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == name for t in types)


def verdict_rule_breaches(package):
    """Every place in ``package`` that decides a verdict outside
    ``reports.Check``, gives a non-check a witness, or turns a package
    error into a verdict outside the runner's ``_attempt``."""
    breaches = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(
            "semidecay" if path.stem == "__init__" else f"semidecay.{path.stem}")
        for node in ast.walk(tree):
            if path.name != "reports.py":
                if isinstance(node, ast.ClassDef) and _defines(node.body, "verdict"):
                    breaches.append(f"{path.name}: {node.name} defines verdict")
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AugAssign,
                                                                   ast.AnnAssign))
                           else [])
                if any(isinstance(t, ast.Attribute) and t.attr == "verdict"
                       for t in targets):
                    breaches.append(f"{path.name}:{node.lineno}: assigns .verdict")
            if (path.name != "errors.py" and isinstance(node, ast.ClassDef)
                    and _defines(node.body, "witness")
                    and not issubclass(getattr(module, node.name), Check)):
                breaches.append(f"{path.name}: {node.name} has a witness but is no Check")
        if path.name == "runner.py":
            guarded = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_attempt":
                    guarded |= {id(sub) for sub in ast.walk(node)}
            breaches += [f"runner.py:{node.lineno}: catches SemidecayError outside _attempt"
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ExceptHandler) and node.type is not None
                         and _catches(node, "SemidecayError") and id(node) not in guarded]
    return breaches


def test_the_verdict_rule_lives_only_in_reports():
    assert verdict_rule_breaches(PACKAGE) == []


def test_the_scan_sees_every_result_class():
    """Not vacuous: the scan reads the result classes it guards."""
    checks = {node.name for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and _defines(node.body, "witness")}
    assert {"H1Report", "H2Report", "H3Report", "H4Report", "FactorizationReport",
            "BoundChainReport", "DecayTransferReport", "ConverseReport",
            "FPDiscretization", "DecompositionResult", "DecayExperimentResult",
            "ResolventScans", "RaisedCheck", "SingularityError"} <= checks
