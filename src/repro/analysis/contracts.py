"""Event-ordering contract checker for the replay loops.

DESIGN.md sections 10-12 promise one tie-breaking contract at equal
timestamps:

    departures -> fault events -> grid sample -> QoS tick -> evacuation
    retries

Every online or faulted replay -- a single cluster replays as a one-shard
fleet -- runs through ``pool_topology._replay_crossshard_events``, so the
contract is stated once: the module's ``_KIND_*`` heap priority table and
the kind dispatch in that loop's ``pump``.  Differential tests pin the
*outputs* of that ordering; this checker reads the table and the pump's
AST and verifies the documented order directly, so the docs cannot
silently rot:

========  ==========================================================
``ORD001``  contract anchor missing (table/function/dispatch not found) --
            the checker fails loudly rather than vacuously passing
``ORD002``  departures must win ties against faults *and* samples
            (lower ``_KIND_DEPARTURE``; the departure arm releases the VM)
``ORD003``  fault events must win ties against samples (lower
            ``_KIND_FAULT``; the fault arm fires the scheduled event)
``ORD004``  sample arm must run take_sample -> QoS tick -> retry tick,
            in that order
``ORD005``  heap kind priorities must order departure < fault < sample <
            horizon < arrival
``ORD006``  pump dispatch must test departure, then fault, then sample
``ORD007``  pump sample arm must reschedule the next grid sample after
            take_sample and before the QoS tick
========  ==========================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["ORDER_RULES", "check_contracts", "check_pump"]

ORDER_RULES: Dict[str, Tuple[str, str]] = {
    "ORD001": (
        "contract anchor missing",
        "the loop this contract pins was renamed or restructured; update "
        "repro.analysis.contracts (and DESIGN.md sections 10-12) together "
        "with the loop",
    ),
    "ORD002": (
        "departure events must win ties",
        "at equal timestamps departures release capacity before faults "
        "fire and samples read state: keep _KIND_DEPARTURE below "
        "_KIND_FAULT and _KIND_SAMPLE, and let the departure arm release "
        "the VM",
    ),
    "ORD003": (
        "fault events must precede the sample at equal timestamps",
        "samples must observe post-fault state: keep _KIND_FAULT below "
        "_KIND_SAMPLE, and let the fault arm fire the scheduled event",
    ),
    "ORD004": (
        "sample arm order take_sample -> qos_tick -> retry_tick",
        "samples always show the pre-mitigation state and evacuation "
        "retries run after mitigation frees headroom (DESIGN.md sections "
        "10-11)",
    ),
    "ORD005": (
        "heap kind priorities out of order",
        "the merged heap's total order encodes the tie contract: "
        "_KIND_DEPARTURE < _KIND_FAULT < _KIND_SAMPLE < _KIND_HORIZON < "
        "_KIND_ARRIVAL",
    ),
    "ORD006": (
        "pump dispatch order departure -> fault -> sample",
        "keep the kind dispatch chain aligned with the heap priorities so "
        "readers can audit the contract in one place",
    ),
    "ORD007": (
        "pump sample arm must reschedule before the qos_tick",
        "the next grid sample must be rescheduled from the sampled time "
        "(heappush after take_sample) before mitigation mutates state",
    ),
}

_KIND_ORDER = ("_KIND_DEPARTURE", "_KIND_FAULT", "_KIND_SAMPLE",
               "_KIND_HORIZON", "_KIND_ARRIVAL")


def _find_function(node: ast.AST, name: str) -> Optional[ast.AST]:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and sub.name == name:
            return sub
    return None


def _find_while(node: ast.AST) -> Optional[ast.While]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.While):
            return sub
    return None


def _ordered_calls(nodes: Sequence[ast.AST]) -> List[Tuple[str, int]]:
    """``(callee, lineno)`` for every call, in source (pre-)order."""
    out: List[Tuple[str, int]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out.append((func.id, node.lineno))
            elif isinstance(func, ast.Attribute):
                out.append((func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for node in nodes:
        visit(node)
    return out


def _calls_in_order(calls: List[Tuple[str, int]],
                    expected: Sequence[str]) -> bool:
    """True when ``expected`` appears as a subsequence of the call names."""
    position = 0
    for name, _line in calls:
        if position < len(expected) and name == expected[position]:
            position += 1
    return position == len(expected)


def _compare_names(test: ast.expr) -> List[Tuple[str, str, str]]:
    """Flatten ``a <= b``-style comparisons to ``(left, op, right)``."""
    out: List[Tuple[str, str, str]] = []
    for sub in ast.walk(test):
        if (isinstance(sub, ast.Compare) and len(sub.ops) == 1
                and isinstance(sub.left, ast.Name)
                and isinstance(sub.comparators[0], ast.Name)):
            out.append((sub.left.id, type(sub.ops[0]).__name__,
                        sub.comparators[0].id))
    return out


def _anchor_missing(path: str, line: int, what: str) -> Finding:
    return Finding(
        rule="ORD001", path=path, line=line,
        message=f"contract anchor missing: {what}",
        hint=ORDER_RULES["ORD001"][1], snippet=what,
    )


# -- the kind table and the pump ----------------------------------------------------


def _check_kind_table(posix: str, tree: ast.Module) -> List[Finding]:
    """ORD002, ORD003 and ORD005 on the module's ``_KIND_*`` table."""
    kinds: Dict[str, int] = {}
    lines: Dict[str, int] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in _KIND_ORDER
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)):
            kinds[node.targets[0].id] = node.value.value
            lines[node.targets[0].id] = node.lineno
    missing = [name for name in _KIND_ORDER if name not in kinds]
    if missing:
        return [_anchor_missing(
            posix, 1, f"heap kind constants {', '.join(missing)}")]
    snippet = ", ".join(f"{k}={kinds[k]}" for k in _KIND_ORDER)
    findings: List[Finding] = []
    departure = kinds["_KIND_DEPARTURE"]
    fault = kinds["_KIND_FAULT"]
    sample = kinds["_KIND_SAMPLE"]
    if not (departure < fault and departure < sample):
        findings.append(Finding(
            rule="ORD002", path=posix, line=lines["_KIND_DEPARTURE"],
            message="departures do not outrank faults and samples at equal "
                    "timestamps",
            hint=ORDER_RULES["ORD002"][1], snippet=snippet,
        ))
    if not fault < sample:
        findings.append(Finding(
            rule="ORD003", path=posix, line=lines["_KIND_FAULT"],
            message="fault events do not outrank the sample at equal "
                    "timestamps",
            hint=ORDER_RULES["ORD003"][1], snippet=snippet,
        ))
    values = [kinds[name] for name in _KIND_ORDER]
    if values != sorted(values) or len(set(values)) != len(values):
        findings.append(Finding(
            rule="ORD005", path=posix, line=lines[_KIND_ORDER[0]],
            message="heap kind priorities do not strictly order "
                    "departure < fault < sample < horizon < arrival",
            hint=ORDER_RULES["ORD005"][1], snippet=snippet,
        ))
    return findings


def check_pump(path) -> List[Finding]:
    """Verify the kind table and the events loop's pump dispatch order."""
    path = Path(path)
    posix = path.as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    findings = _check_kind_table(posix, tree)

    outer = _find_function(tree, "_replay_crossshard_events")
    if outer is None:
        findings.append(_anchor_missing(
            posix, 1, "function _replay_crossshard_events"))
        return findings
    pump = _find_function(outer, "pump")
    if pump is None:
        findings.append(_anchor_missing(posix, outer.lineno,
                                        "inner function pump"))
        return findings
    loop = _find_while(pump)
    dispatch = None
    if loop is not None:
        dispatch = next((s for s in loop.body if isinstance(s, ast.If)), None)
    if dispatch is None:
        findings.append(_anchor_missing(
            posix, pump.lineno, "kind dispatch chain in pump"))
        return findings

    # Flatten the elif chain to (kind-constant, body) arms.
    arms: List[Tuple[Optional[str], Sequence[ast.stmt], int]] = []
    node: Optional[ast.stmt] = dispatch
    while isinstance(node, ast.If):
        kind_name = None
        for left, op, right in _compare_names(node.test):
            if op == "Eq" and left == "kind" and right in _KIND_ORDER:
                kind_name = right
        arms.append((kind_name, node.body, node.lineno))
        orelse = node.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            node = orelse[0]
        else:
            arms.append((None, orelse, node.lineno))
            node = None

    tested = [kind for kind, _body, _line in arms if kind is not None]
    if tested != ["_KIND_DEPARTURE", "_KIND_FAULT", "_KIND_SAMPLE"]:
        findings.append(Finding(
            rule="ORD006", path=posix, line=dispatch.lineno,
            message="pump dispatch does not test departure, fault, sample "
                    "in contract order",
            hint=ORDER_RULES["ORD006"][1],
            snippet=" -> ".join(tested) or "(no kind tests found)",
        ))
        return findings

    by_kind = {kind: (body, line) for kind, body, line in arms
               if kind is not None}
    body, line = by_kind["_KIND_DEPARTURE"]
    if not any(name in ("on_departure", "remove")
               for name, _ in _ordered_calls(body)):
        findings.append(Finding(
            rule="ORD002", path=posix, line=line,
            message="pump departure arm does not release the VM",
            hint=ORDER_RULES["ORD002"][1], snippet="",
        ))
    body, line = by_kind["_KIND_FAULT"]
    if not _calls_in_order(_ordered_calls(body), ["fire_next"]):
        findings.append(Finding(
            rule="ORD003", path=posix, line=line,
            message="pump fault arm does not fire the scheduled event",
            hint=ORDER_RULES["ORD003"][1], snippet="",
        ))
    body, line = by_kind["_KIND_SAMPLE"]
    sample_calls = _ordered_calls(body)
    chain = " -> ".join(name for name, _ in sample_calls)
    if not _calls_in_order(sample_calls,
                           ["take_sample", "qos_tick", "retry_tick"]):
        findings.append(Finding(
            rule="ORD004", path=posix, line=line,
            message="pump sample arm does not run take_sample, qos_tick, "
                    "retry_tick in contract order",
            hint=ORDER_RULES["ORD004"][1], snippet=chain,
        ))
    names = [name for name, _ in sample_calls]
    if not (_calls_in_order(sample_calls, ["take_sample", "heappush"])
            and ("qos_tick" not in names
                 or names.index("heappush") < names.index("qos_tick"))):
        findings.append(Finding(
            rule="ORD007", path=posix, line=line,
            message="pump sample arm does not reschedule the next grid "
                    "sample between take_sample and qos_tick",
            hint=ORDER_RULES["ORD007"][1], snippet=chain,
        ))
    return findings


def check_contracts(pool_topology_path=None) -> List[Finding]:
    """Check the events loop; the default path resolves inside the package."""
    if pool_topology_path is None:
        pool_topology_path = (Path(__file__).resolve().parents[1]
                              / "cluster" / "pool_topology.py")
    return check_pump(pool_topology_path)
