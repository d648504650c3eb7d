"""The public API: every exported name resolves, and the package exports
exactly the names below, so a removal or a stale export fails here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import swipt_relay

MODULES = ("allocator", "baselines", "channel", "cli", "model", "montecarlo", "oracle")

PACKAGE_API = {
    "AllocationResult",
    "ChannelRealization",
    "ConfigError",
    "NoUsablePairError",
    "NoiseProfile",
    "PolicyId",
    "SubcarrierPairing",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TrialResult",
    "VerificationReport",
    "best_pairing_exhaustive",
    "dbm_to_mw",
    "default_config",
    "effective_gain",
    "generate_channel",
    "load_config",
    "power_by_grid",
    "rate_terms",
    "rho_by_bisection",
    "run_trials",
    "solve",
    "solve_conventional",
    "solve_opa_no_pairing",
    "solve_policy",
    "solve_uniform",
    "sorted_pairing",
    "sweep",
    "validate_config",
    "verify",
    "waterfill",
}


def test_package_exports_exactly_the_public_api():
    assert set(swipt_relay.__all__) == PACKAGE_API
    assert len(swipt_relay.__all__) == len(PACKAGE_API)
    for name in swipt_relay.__all__:
        assert hasattr(swipt_relay, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"swipt_relay.{module_name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def _benchmark_bindings() -> set[tuple[str, str]]:
    """(module name, attribute) of every binding perfbench's tracer looks up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(owner.__name__, attr) for owner, attr, _ in spans.BINDINGS}


@pytest.mark.parametrize("path", sorted(Path(swipt_relay.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used_exported_or_bound(path):
    """A name a module imports is used there, exported in its ``__all__``, or
    looked up on it by the benchmark's tracer; any other import is a
    leftover."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    name = "swipt_relay" if path.stem == "__init__" else f"swipt_relay.{path.stem}"
    exported = set(getattr(importlib.import_module(name), "__all__", ()))
    bound = {attr for owner, attr in _benchmark_bindings() if owner == name}
    assert imported - used - exported - bound == set()


# the spellings of a number type that ``isinstance`` could test against
NUMBER_TYPES = {f"{prefix}{name}" for prefix in ("np.", "numpy.") for name in ("integer", "floating", "number")}
NUMBER_TYPES |= {"int", "float"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(swipt_relay.__file__).parent.glob("*.py") if p.stem != "model"),
    ids=lambda p: p.stem,
)
def test_only_the_model_decides_what_counts_as_a_number(path):
    """Whether an argument is a number is decided by ``model._is_int``,
    ``_is_real`` and ``_real`` alone: no other module runs an ``isinstance``
    test against a number type."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tested = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if ast.unparse(kind) in NUMBER_TYPES:
                    tested.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert tested == []


# the names through which a config could be checked again after it is built
CONFIG_CHECKS = {"config_errors", "validate_config", "ConfigError"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(swipt_relay.__file__).parent.glob("*.py") if p.stem != "model"),
    ids=lambda p: p.stem,
)
def test_only_the_model_checks_a_config(path):
    """A config is checked once, when it is built: no other module calls
    ``config_errors`` or ``validate_config``, or raises ``ConfigError``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        else:
            continue
        if ast.unparse(target).split(".")[-1] in CONFIG_CHECKS:
            checked.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert checked == []
