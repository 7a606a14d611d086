"""simlint rules SL001–SL016, tuned to the Tetris Write reproduction.

Each rule is a declarative class: ``id``/``title`` metadata, the AST
node types it wants dispatched, a path scope (``applies_to``), and a
``check`` generator yielding :class:`~simlint.engine.LintFinding`.
Project-level rules (``project_level = True``) instead implement
``check_project`` against the whole-program
:class:`~simlint.project.ProjectModel`.

The rule set encodes the repo's simulator invariants (DESIGN.md §6,
``schemes/base.py`` conventions):

====== ==============================================================
SL001  determinism — no unseeded RNG inside ``repro.*``
SL002  simulated time only — no wall clock in sim/core/schemes/pcm
SL003  ``WriteScheme`` subclasses must register + override abstracts
SL004  no ``==``/``!=`` on float time/energy expressions
SL005  no mutable default arguments
SL006  time-carrying parameters must use the ``_ns`` suffix convention
SL007  no swallowed-failure handlers (bare/broad except that eats it)
SL008  no bare ``print()`` in library code (CLI owns stdout)
SL009  no fork-unsafe multiprocessing patterns (mutable module state
       consumed in pool workers; lambdas as pool tasks)
SL010  oracle/simulator independence — the analytic oracle must not
       import production code, and production code must not import
       the oracle (``repro.cli`` excepted)
SL011  unit-flow — intraprocedural dataflow over physical units
       (``ns``, ``cycles``, ``bits``, ``pJ``, ``mA``, ...): mixed-unit
       ``+``/``-``/comparisons, unit-mismatched arguments against
       ``*_ns``/``*_pj`` parameters, and returns that contradict the
       function's own suffix; ``X_PER_Y`` conversion constants are the
       sanctioned escape hatch
SL012  architecture contract — the layer DAG declared in
       ``simlint.toml`` checked against the real import graph, plus
       import cycles and orphan modules (project-level)
SL013  API drift — ``docs/API.md`` cross-checked against the static
       symbol table: documented-but-deleted and
       public-but-undocumented symbols (project-level)
SL014  supervised parallelism — no bare ``multiprocessing.Pool`` /
       ``imap``-family dispatch in ``repro.*``; sweeps must go through
       ``repro.parallel.supervisor.WorkerSupervisor`` (``repro.cli``
       and the supervisor itself exempt)
SL015  async hygiene — no blocking calls (``time.sleep``,
       ``subprocess.*``, sync socket/select waits, ``os.fsync``, bare
       ``open``) inside ``async def`` in ``repro.service``; blocking
       work goes through ``loop.run_in_executor``
SL016  lane independence — ``repro.fastpath`` must not import the DES
       (``repro.sim``/``repro.memctrl``/``repro.cpu``) and simulator
       code must not import the fastpath; the differential recheck
       module and ``repro.cli`` are the sanctioned bridges
====== ==============================================================
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from simlint.engine import LintFinding, ModuleContext

if TYPE_CHECKING:  # pragma: no cover - type names only
    from simlint.config import SimlintSettings
    from simlint.project import ProjectModel

__all__ = [
    "LintRule",
    "RULE_REGISTRY",
    "default_rules",
    "UnseededRandomRule",
    "WallClockRule",
    "SchemeRegistrationRule",
    "FloatTimeEqualityRule",
    "MutableDefaultRule",
    "TimeUnitSuffixRule",
    "SwallowedExceptionRule",
    "BarePrintRule",
    "ForkUnsafeWorkerRule",
    "OracleIndependenceRule",
    "UnitFlowRule",
    "ArchitectureContractRule",
    "ApiDriftRule",
    "UnsupervisedPoolRule",
    "BlockingAsyncCallRule",
    "LaneIndependenceRule",
]

RULE_REGISTRY: dict[str, type["LintRule"]] = {}


class LintRule:
    """Base class; subclasses self-register by ``id``."""

    id: str = ""
    title: str = ""
    node_types: tuple[type, ...] = ()
    #: project-level rules run once against the whole-program model
    #: (phase 2b) instead of per file; they implement ``check_project``.
    project_level: bool = False
    #: default severity of this rule's findings ("error" | "warn");
    #: overridable per rule in ``simlint.toml`` ``[severity]``.
    severity: str = "error"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.id:
            RULE_REGISTRY[cls.id] = cls

    # ------------------------------------------------------------------
    def applies_to(self, ctx: ModuleContext) -> bool:  # pragma: no cover
        return True

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[LintFinding]:
        raise NotImplementedError

    def check_project(self, project, settings) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(
        self,
        node: ast.AST,
        ctx: ModuleContext,
        message: str,
        *,
        severity: str | None = None,
    ) -> LintFinding:
        return LintFinding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity if severity is not None else self.severity,
        )

    def project_finding(
        self,
        *,
        path: str,
        line: int,
        message: str,
        col: int = 0,
        severity: str | None = None,
    ) -> LintFinding:
        return LintFinding(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=severity if severity is not None else self.severity,
        )


def default_rules() -> list[LintRule]:
    """One instance of every registered rule, in id order."""
    return [RULE_REGISTRY[k]() for k in sorted(RULE_REGISTRY)]


# ----------------------------------------------------------------------
# SL001 — determinism: every RNG must flow from a seeded Generator.
# ----------------------------------------------------------------------
class UnseededRandomRule(LintRule):
    """Unseeded / global-state RNG calls break trace reproducibility.

    Simulation results must be a pure function of ``SystemConfig.seed``
    (DESIGN.md; ``tests/test_reproducibility.py``).  Three families of
    call sites violate that:

    * ``numpy.random.default_rng()`` / ``RandomState()`` with no seed —
      entropy from the OS;
    * the legacy numpy global API (``np.random.randint`` etc.) — hidden
      process-wide state, including ``np.random.seed`` which mutates it;
    * the stdlib ``random`` module-level functions and ``SystemRandom``.

    Seeded constructions (``default_rng(seed)``, ``SeedSequence([...])``,
    ``random.Random(seed)``) and passing a ``Generator`` around are fine.
    """

    id = "SL001"
    title = "unseeded or global-state RNG in simulator code"
    node_types = (ast.Call,)

    _NUMPY_GLOBAL = re.compile(
        r"^numpy\.random\.("
        r"seed|rand|randn|randint|random|random_sample|ranf|sample|bytes|"
        r"choice|shuffle|permutation|uniform|normal|standard_normal|poisson|"
        r"binomial|geometric|exponential|beta|gamma|integers"
        r")$"
    )
    _STDLIB_GLOBAL = re.compile(
        r"^random\.("
        r"seed|random|randint|randrange|getrandbits|randbytes|choice|choices|"
        r"shuffle|sample|uniform|triangular|betavariate|expovariate|"
        r"gammavariate|gauss|lognormvariate|normalvariate|vonmisesvariate|"
        r"paretovariate|weibullvariate"
        r")$"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[LintFinding]:
        name = ctx.resolve(node.func)
        if name is None:
            return
        seeded = bool(node.args or node.keywords)
        if name in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not seeded:
                yield self.finding(
                    node,
                    ctx,
                    f"{name}() without a seed draws OS entropy; "
                    "thread the seed from SystemConfig.seed",
                )
        elif self._NUMPY_GLOBAL.match(name):
            yield self.finding(
                node,
                ctx,
                f"legacy global-state RNG call {name}(); "
                "use a seeded numpy.random.Generator instead",
            )
        elif name == "random.SystemRandom":
            yield self.finding(
                node, ctx, "random.SystemRandom is nondeterministic by design"
            )
        elif name == "random.Random" and not seeded:
            yield self.finding(
                node, ctx, "random.Random() without a seed draws OS entropy"
            )
        elif self._STDLIB_GLOBAL.match(name):
            yield self.finding(
                node,
                ctx,
                f"stdlib global-state RNG call {name}(); "
                "use a seeded numpy.random.Generator instead",
            )


# ----------------------------------------------------------------------
# SL002 — simulated time only in the simulator core.
# ----------------------------------------------------------------------
class WallClockRule(LintRule):
    """Wall-clock reads inside the simulator leak host time into results.

    The DES engine (``repro.sim.engine``) owns the only clock the model
    may observe; schemes, the scheduler, and the device model express
    time exclusively in simulated nanoseconds.  A ``perf_counter`` or
    ``datetime.now`` in those packages either silently perturbs results
    or sneaks profiling into a hot path — both belong in benchmarks.
    """

    id = "SL002"
    title = "wall-clock call inside simulated-time code"
    node_types = (ast.Call,)

    _FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(
            "repro.sim", "repro.core", "repro.schemes", "repro.pcm"
        )

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[LintFinding]:
        name = ctx.resolve(node.func)
        if name in self._FORBIDDEN:
            yield self.finding(
                node,
                ctx,
                f"wall-clock call {name}() in simulated-time code; "
                "use the Simulator clock (sim.now) or move timing to benchmarks/",
            )


# ----------------------------------------------------------------------
# SL003 — WriteScheme subclasses must register and be complete.
# ----------------------------------------------------------------------
class SchemeRegistrationRule(LintRule):
    """Concrete ``WriteScheme`` subclasses must be registry-complete.

    Registration happens in ``WriteScheme.__init_subclass__`` keyed on a
    string ``name`` class attribute, and the simulator dispatches on the
    registry — so a subclass without ``name`` silently vanishes from
    ``get_scheme``/``ALL_SCHEMES``, and one missing an abstract override
    explodes only when first instantiated.  The rule requires every
    non-abstract direct subclass to define ``name`` (a string literal),
    ``requires_read``, and both abstract methods in its own body or via
    an explicit assignment.  The write hook is satisfied by either
    ``_write_once`` (the template-method hook the base ``write`` wraps
    with wear + fault handling) or a full ``write`` override (legacy
    subclasses that bypass the fault path).
    """

    id = "SL003"
    title = "incomplete WriteScheme subclass"
    node_types = (ast.ClassDef,)

    # Each entry is a tuple of acceptable spellings; defining any one of
    # them satisfies the requirement.
    _ABSTRACTS = (("_write_once", "write"), ("worst_case_units",))
    _CLASSVARS = ("name", "requires_read")

    def _is_writescheme_base(self, base: ast.expr, ctx: ModuleContext) -> bool:
        name = ctx.resolve(base)
        return name is not None and (
            name == "WriteScheme" or name.endswith(".WriteScheme")
        )

    @staticmethod
    def _is_abstract(node: ast.ClassDef, ctx: ModuleContext) -> bool:
        for base in node.bases:
            resolved = ctx.resolve(base) or ""
            if resolved in ("ABC", "abc.ABC") or resolved.endswith(".ABC"):
                return True
        for kw in node.keywords:
            if kw.arg == "metaclass":
                return True
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    resolved = ctx.resolve(deco) or ""
                    if resolved.split(".")[-1] == "abstractmethod":
                        return True
        return False

    def check(self, node: ast.ClassDef, ctx: ModuleContext) -> Iterator[LintFinding]:
        if not any(self._is_writescheme_base(b, ctx) for b in node.bases):
            return
        if self._is_abstract(node, ctx):
            return

        defined: set[str] = set()
        name_value: ast.expr | None = None
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        defined.add(tgt.id)
                        if tgt.id == "name":
                            name_value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                # Annotation-only (`name: ClassVar[str]`) declares, but does
                # not define — only a value registers the scheme.
                if stmt.value is not None:
                    defined.add(stmt.target.id)
                    if stmt.target.id == "name":
                        name_value = stmt.value

        for attr in self._CLASSVARS:
            if attr not in defined:
                yield self.finding(
                    node,
                    ctx,
                    f"WriteScheme subclass {node.name} does not set {attr!r}; "
                    "without a string `name` it is never entered in SCHEME_REGISTRY",
                )
        if name_value is not None and not (
            isinstance(name_value, ast.Constant) and isinstance(name_value.value, str)
        ):
            yield self.finding(
                node,
                ctx,
                f"{node.name}.name must be a string literal for registration",
            )
        for spellings in self._ABSTRACTS:
            if not any(meth in defined for meth in spellings):
                wanted = " or ".join(repr(m) for m in spellings)
                yield self.finding(
                    node,
                    ctx,
                    f"WriteScheme subclass {node.name} does not override "
                    f"abstract method {wanted}",
                )


# ----------------------------------------------------------------------
# SL004 — float time/energy expressions must not use == / !=.
# ----------------------------------------------------------------------
class FloatTimeEqualityRule(LintRule):
    """Exact equality on derived float times/energies is a latent bug.

    ``service_ns``, energies, and anything built from ``t_set``/``t_reset``
    go through float arithmetic (``units * t_set_ns``, Eq. 5's
    ``subresult / K``), so ``==`` comparisons hold only by accident of
    rounding.  Compare with a tolerance (``math.isclose``,
    ``pytest.approx``, ``numpy.isclose``) or restructure as an ordering
    test.  Comparisons whose other side is wrapped in one of those
    tolerance helpers are accepted.
    """

    id = "SL004"
    title = "exact float equality on time/energy expression"
    node_types = (ast.Compare,)

    _UNIT_NAME = re.compile(r"(_ns$|^t_set(_ns)?$|^t_reset(_ns)?$|energy)", re.I)
    _TOLERANT = frozenset({"approx", "isclose", "allclose", "assert_allclose"})

    def _terminal_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _unit_bearing(self, node: ast.expr) -> bool:
        if isinstance(node, ast.BinOp):
            return self._unit_bearing(node.left) or self._unit_bearing(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._unit_bearing(node.operand)
        if isinstance(node, ast.Call):
            # sum(x.service_ns ...), float(x.energy) keep their units, but a
            # tolerance helper (pytest.approx(...)) deliberately does not.
            if (self._terminal_name(node.func) or "") in self._TOLERANT:
                return False
            return any(self._unit_bearing(a) for a in node.args)
        name = self._terminal_name(node)
        return bool(name and self._UNIT_NAME.search(name))

    def _tolerant(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and (self._terminal_name(node.func) or "") in self._TOLERANT
        )

    def check(self, node: ast.Compare, ctx: ModuleContext) -> Iterator[LintFinding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._tolerant(left) or self._tolerant(right):
                continue
            for side, other in ((left, right), (right, left)):
                if self._unit_bearing(side):
                    if isinstance(other, ast.Constant) and isinstance(
                        other.value, str
                    ):
                        break  # comparing a label, not a quantity
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        left,
                        ctx,
                        f"exact float {sym} on time/energy expression; use "
                        "math.isclose/pytest.approx or an ordering comparison",
                    )
                    break


# ----------------------------------------------------------------------
# SL005 — mutable default arguments.
# ----------------------------------------------------------------------
class MutableDefaultRule(LintRule):
    """A mutable default is shared across calls — state leaks between
    writes/experiments, the exact class of bug the determinism tests
    cannot catch because the first run is self-consistent."""

    id = "SL005"
    title = "mutable default argument"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in self._MUTABLE_CALLS
        return False

    def check(self, node, ctx: ModuleContext) -> Iterator[LintFinding]:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable(default):
                fn = getattr(node, "name", "<lambda>")
                yield self.finding(
                    default,
                    ctx,
                    f"mutable default argument in {fn}(); "
                    "use None and construct inside the function",
                )


# ----------------------------------------------------------------------
# SL006 — time-carrying parameters use the _ns suffix convention.
# ----------------------------------------------------------------------
class TimeUnitSuffixRule(LintRule):
    """Public time-valued parameters must say their unit.

    ``schemes/base.py`` documents the convention: everything that is a
    time is named ``*_ns`` (the scheduler's unitless quantities are
    ``*_units``/``result``/``subresult``).  An unsuffixed ``delay`` or
    ``latency`` parameter on a public function in ``repro.core`` /
    ``repro.schemes`` invites ns-vs-cycles mix-ups at call sites —
    exactly the interface drift the scaling PRs would multiply.
    """

    id = "SL006"
    title = "time-valued parameter missing unit suffix"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _TIME_WORDS = re.compile(
        r"(^|_)(time|latency|delay|duration|deadline|timeout|interval|elapsed|overhead|period)(_|$)",
        re.I,
    )
    _UNIT_SUFFIX = re.compile(
        r"(_ns|_us|_ms|_s|_sec|_seconds|_cycles|_ticks|_units|_insts|_hz|_ghz|_mhz)$"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro.core", "repro.schemes")

    def check(self, node, ctx: ModuleContext) -> Iterator[LintFinding]:
        if node.name.startswith("_"):
            return
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            name = arg.arg
            if name in ("self", "cls"):
                continue
            if self._TIME_WORDS.search(name) and not self._UNIT_SUFFIX.search(name):
                yield self.finding(
                    arg,
                    ctx,
                    f"parameter {name!r} of public {node.name}() looks "
                    "time-valued but has no unit suffix; use the _ns "
                    "convention from schemes/base.py",
                )


# ----------------------------------------------------------------------
# SL007 — no swallowed-failure handlers in simulator code.
# ----------------------------------------------------------------------
class SwallowedExceptionRule(LintRule):
    """Simulator code must never silently eat a failure.

    The fault subsystem (``repro.faults``) turns hardware failures into
    structured exceptions precisely so nothing corrupts state silently —
    a ``bare except:`` or an ``except Exception:`` whose body just
    ``pass``es undoes that guarantee and hides real bugs (an
    :class:`InvariantViolation` or ``UncorrectableWriteError`` vanishing
    into a handler is indistinguishable from a clean run).  Flagged:

    * ``except:`` with no exception type, unless the body re-raises;
    * ``except Exception`` / ``except BaseException`` whose body is
      only ``pass``/``...`` (optionally behind a docstring/comment).

    Catching *specific* exceptions, logging-and-handling, and broad
    handlers that re-raise are all fine.
    """

    id = "SL007"
    title = "swallowed-failure exception handler"
    node_types = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    @staticmethod
    def _reraises(body: list[ast.stmt]) -> bool:
        for stmt in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(stmt, ast.Raise):
                return True
        return False

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        """True when the handler body does nothing with the failure."""
        meaningful = [
            stmt
            for stmt in body
            if not (
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            )
        ]
        return not meaningful

    def _broad_names(self, node: ast.ExceptHandler, ctx: ModuleContext) -> bool:
        types = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for t in types:
            resolved = ctx.resolve(t) if t is not None else None
            if resolved is not None and resolved.split(".")[-1] in self._BROAD:
                return True
        return False

    def check(
        self, node: ast.ExceptHandler, ctx: ModuleContext
    ) -> Iterator[LintFinding]:
        if node.type is None:
            if not self._reraises(node.body):
                yield self.finding(
                    node,
                    ctx,
                    "bare `except:` swallows every failure (including "
                    "InvariantViolation); catch the specific exception "
                    "or re-raise",
                )
            return
        if self._broad_names(node, ctx) and self._swallows(node.body):
            yield self.finding(
                node,
                ctx,
                "`except Exception: pass` silently eats a fault; handle "
                "it, narrow the type, or let it propagate",
            )


# ----------------------------------------------------------------------
# SL008 — library code must not print; the CLI owns stdout.
# ----------------------------------------------------------------------
class BarePrintRule(LintRule):
    """Bare ``print()`` calls inside ``src/repro`` pollute stdout.

    The simulator is a library first: experiments return result objects,
    metrics flow through ``repro.obs.MetricRegistry``, and the only
    component allowed to talk to the terminal is ``repro.cli`` (which
    also formats machine-readable output for the bench harness).  A
    stray ``print()`` deep in a scheme or the memory controller

    * corrupts piped output (``tetris-write ... | python -``),
    * breaks bit-identity diffing of run logs, and
    * cannot be silenced per-run the way tracer/metric output can.

    Return strings, raise structured exceptions, or record to the
    metric registry instead.  ``repro.cli`` itself is exempt.
    """

    id = "SL008"
    title = "bare print() in library code"
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro") and not ctx.in_package("repro.cli")

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[LintFinding]:
        if ctx.resolve(node.func) == "print":
            yield self.finding(
                node,
                ctx,
                "library code must not print(); return the string, use "
                "the repro.obs metric registry, or move output to "
                "repro.cli",
            )

# ----------------------------------------------------------------------
# SL009 — fork-unsafe multiprocessing patterns.
# ----------------------------------------------------------------------
class ForkUnsafeWorkerRule(LintRule):
    """Pool workers must not rely on mutable module-level state.

    The sweep engine (``repro.parallel``) fans experiment cells over a
    process pool.  Two patterns look correct under Linux's ``fork`` start
    method but are wrong or non-portable:

    * **Module-level mutable state consumed inside a worker function** —
      each forked process mutates its *own copy*, so accumulations
      silently diverge from the serial run and vanish when the pool
      exits (and under ``spawn`` the state is re-imported empty).  Pass
      state through the task payload, return it from the worker, or use
      a per-process ``functools.lru_cache`` on a pure function.
    * **Lambdas (or other unpicklable callables) submitted as pool
      tasks** — ``fork`` happens to ship them, but ``spawn``/
      ``forkserver`` (macOS/Windows defaults) pickle the callable by
      qualified name and crash.  Define workers at module top level.

    The rule analyzes one module at a time: it collects module-level
    mutable bindings and pool-task submissions (``pool.map``-family
    methods, the task function of a ``WorkerSupervisor(...)`` — first
    positional argument or ``task_fn=`` — and ``Process(target=...)``),
    then walks each locally-defined worker for reads/writes of those
    bindings.
    """

    id = "SL009"
    title = "fork-unsafe multiprocessing pattern"
    node_types = (ast.Module,)

    # Methods that submit a callable to a pool.  The generic names (map,
    # apply) are only trusted when the receiver looks like a pool or an
    # executor; the multiprocessing-specific spellings always count.
    _POOL_ONLY_METHODS = frozenset(
        {"imap", "imap_unordered", "map_async", "starmap", "starmap_async",
         "apply_async"}
    )
    _GENERIC_METHODS = frozenset({"map", "apply", "submit"})
    _TASK_FUNCS = frozenset({"WorkerSupervisor"})
    _RECEIVER_HINT = re.compile(r"(pool|executor)", re.I)
    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "deque",
         "Counter", "OrderedDict"}
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    # -- module-level mutable bindings ---------------------------------
    def _is_mutable_value(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in self._MUTABLE_CALLS
        return False

    def _module_mutables(self, module: ast.Module) -> dict[str, ast.stmt]:
        out: dict[str, ast.stmt] = {}
        for stmt in module.body:
            if isinstance(stmt, ast.Assign) and self._is_mutable_value(stmt.value):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        out[tgt.id] = stmt
            elif (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and self._is_mutable_value(stmt.value)
            ):
                out[stmt.target.id] = stmt
        return out

    # -- pool-task submissions -----------------------------------------
    def _receiver_text(self, node: ast.expr, ctx: ModuleContext) -> str:
        resolved = ctx.resolve(node)
        if resolved is not None:
            return resolved
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def _task_exprs(self, tree: ast.Module, ctx: ModuleContext) -> list[ast.expr]:
        """Every expression submitted as a pool task in this module."""
        tasks: list[ast.expr] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                method = func.attr
                is_pool_call = method in self._POOL_ONLY_METHODS or (
                    method in self._GENERIC_METHODS
                    and self._RECEIVER_HINT.search(
                        self._receiver_text(func.value, ctx)
                    )
                )
                if is_pool_call and node.args:
                    tasks.append(node.args[0])
                    continue
            resolved = ctx.resolve(func)
            if resolved is not None:
                tail = resolved.split(".")[-1]
                if tail in self._TASK_FUNCS:
                    tasks.extend(node.args[:1])
                    tasks.extend(
                        kw.value for kw in node.keywords if kw.arg == "task_fn"
                    )
                    continue
                if tail == "Process":
                    for kw in node.keywords:
                        if kw.arg == "target":
                            tasks.append(kw.value)
        return tasks

    @staticmethod
    def _unwrap_partial(expr: ast.expr) -> ast.expr:
        """``partial(fn, ...)`` submits ``fn``; look through it."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, (ast.Name, ast.Attribute))
            and (
                expr.func.id if isinstance(expr.func, ast.Name) else expr.func.attr
            )
            == "partial"
            and expr.args
        ):
            return expr.args[0]
        return expr

    # ------------------------------------------------------------------
    def check(self, node: ast.Module, ctx: ModuleContext) -> Iterator[LintFinding]:
        mutables = self._module_mutables(node)
        tasks = self._task_exprs(node, ctx)
        if not tasks:
            return

        worker_names: set[str] = set()
        for expr in tasks:
            expr = self._unwrap_partial(expr)
            if isinstance(expr, ast.Lambda):
                yield self.finding(
                    expr,
                    ctx,
                    "lambda passed as a pool task cannot be pickled under "
                    "the spawn start method; define a top-level worker "
                    "function",
                )
            elif isinstance(expr, ast.Name):
                worker_names.add(expr.id)

        if not mutables or not worker_names:
            return
        workers = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in worker_names
        ]
        for fn in workers:
            reported: set[str] = set()
            for sub in ast.walk(fn):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id in mutables
                    and sub.id not in reported
                ):
                    reported.add(sub.id)
                    yield self.finding(
                        sub,
                        ctx,
                        f"pool worker {fn.name}() uses module-level mutable "
                        f"state {sub.id!r}; each forked process mutates its "
                        "own copy (results diverge silently) — pass it via "
                        "the task payload or return it from the worker",
                    )


# ----------------------------------------------------------------------
# SL010 — oracle independence: schemes and oracle must not share code.
# ----------------------------------------------------------------------
class OracleIndependenceRule(LintRule):
    """The differential oracle only catches bugs it does not share.

    ``repro.oracle.analytic`` re-implements Equations 1-5 from the paper
    text precisely so that a wrong answer in the production schedulers
    cannot be reproduced by construction on the oracle side.  Two import
    directions break that guarantee:

    * **oracle -> simulator**: ``repro.oracle.analytic`` importing
      ``repro.schemes`` / ``repro.core`` / ``repro.pcm`` / ``repro.sim``
      / ``repro.config`` would let production arithmetic leak into the
      "independent" model (the differential *harness* modules are the
      sanctioned bridge and are exempt);
    * **simulator -> oracle**: production code importing
      ``repro.oracle`` would invert the dependency — a scheme computing
      its latency *from* the oracle makes the cross-check a tautology.
      Only ``repro.cli`` (reporting) and ``repro.fastpath`` (the
      analytic sweep lane, itself barred from DES imports by
      SL016) may depend on the oracle package.
    """

    id = "SL010"
    title = "oracle/simulator independence violation"
    node_types = (ast.Import, ast.ImportFrom)

    #: simulator packages the analytic oracle must never touch.
    _SIM_PACKAGES = (
        "repro.schemes", "repro.core", "repro.pcm", "repro.sim",
        "repro.config",
    )
    #: oracle modules under the independence contract (the differential /
    #: metamorphic harnesses legitimately drive the production code).
    _INDEPENDENT = ("repro.oracle.analytic", "repro.oracle.paper_claims")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro") and not ctx.in_package("repro.cli")

    @staticmethod
    def _targets(node: ast.Import | ast.ImportFrom) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if node.module and not node.level:
            return [node.module]
        return []

    def check(
        self, node: ast.Import | ast.ImportFrom, ctx: ModuleContext
    ) -> Iterator[LintFinding]:
        in_oracle = ctx.in_package("repro.oracle")
        independent = any(
            ctx.module == m or ctx.module.startswith(m + ".")
            for m in self._INDEPENDENT
        )
        for target in self._targets(node):
            if independent and any(
                target == p or target.startswith(p + ".")
                for p in self._SIM_PACKAGES
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"{ctx.module} must stay independent of the simulator "
                    f"but imports {target}; the analytic oracle is only "
                    "a cross-check if it shares no production code "
                    "(docs/ORACLE.md)",
                )
            elif (
                not in_oracle
                and not ctx.in_package("repro.fastpath")
                and (
                    target == "repro.oracle"
                    or target.startswith("repro.oracle.")
                )
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"production module {ctx.module} imports {target}; "
                    "scheme/simulator code deriving answers from the "
                    "oracle makes the differential cross-check a "
                    "tautology — only repro.cli may report oracle results",
                )


# ----------------------------------------------------------------------
# SL011 — unit-flow: physical units tracked through dataflow.
# ----------------------------------------------------------------------
class UnitFlowRule(LintRule):
    """Mixed physical units caught at lint time, before the DES runs.

    Every latency, energy and current in this repo is a bare float;
    Eq. 1-5 correctness hinges on never adding ``ns`` to ``cycles`` or
    feeding a per-bit current into a chip-level ``*_pj`` parameter.
    SL004/SL006 police *names*; this rule follows the *values*: units
    are inferred from suffix conventions (``_ns``, ``_cycles``,
    ``_bits``, ``_pj``, ``_ma``, ``_units``, ...) on variables,
    attributes, parameters and call results, then propagated
    intraprocedurally through assignments, arithmetic and returns.
    Flagged:

    * ``+``/``-``/comparisons whose two sides carry *different* known
      units (``t_read_ns + t_cmd_cycles``);
    * assigning/augmenting a ``*_ns`` (etc.) name from an expression
      with a different known unit;
    * call arguments whose known unit contradicts the parameter's
      suffix — keyword arguments always, positional arguments when the
      callee's signature is known (same module, or via the phase-1
      project symbol table);
    * ``return`` expressions that contradict the function's own suffix.

    The escape hatch for deliberate conversions is a ``X_PER_Y``
    constant (``NS_PER_CYCLE``, ``joules_per_unit``): multiplying or
    dividing by one converts the unit instead of flagging.  Products of
    two unit-bearing values (``current_ma * t_ns``) deliberately yield
    an *unknown* unit — dimensional algebra is out of scope; the rule
    only ever fires when both sides are confidently known.
    """

    id = "SL011"
    title = "mixed physical units in dataflow"
    node_types = (ast.Module,)

    #: terminal-token -> canonical unit family
    _SUFFIX_UNITS = {
        "ns": "ns", "us": "us", "ms": "ms", "sec": "s", "seconds": "s",
        "cycles": "cycles", "ticks": "cycles",
        "bits": "bits", "bytes": "bytes",
        "pj": "pJ", "nj": "nJ", "joules": "J",
        "ma": "mA", "amps": "A",
        "hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz",
        "units": "units",
    }
    #: tokens accepted on either side of ``_PER_`` in a conversion name
    _CONV_TOKENS = {
        "ns": "ns", "us": "us", "ms": "ms", "s": "s", "sec": "s",
        "second": "s", "seconds": "s",
        "cycle": "cycles", "cycles": "cycles",
        "tick": "cycles", "ticks": "cycles",
        "bit": "bits", "bits": "bits", "byte": "bytes", "bytes": "bytes",
        "pj": "pJ", "nj": "nJ", "j": "J", "joule": "J", "joules": "J",
        "ma": "mA", "amp": "A", "amps": "A",
        "hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz",
        "unit": "units", "units": "units",
    }
    #: calls transparent to units (propagate their first argument)
    _TRANSPARENT = frozenset(
        {"int", "float", "abs", "round", "sum", "min", "max", "full"}
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    # -- unit vocabulary ------------------------------------------------
    @classmethod
    def _name_unit(cls, name: str) -> str | None:
        tokens = name.lower().split("_")
        if "per" in tokens:
            return None  # conversion constants are not unit-bearing
        return cls._SUFFIX_UNITS.get(tokens[-1])

    @classmethod
    def _conversion(cls, name: str) -> tuple[str, str | None] | None:
        """(numerator unit, denominator unit) of an ``X_PER_Y`` name."""
        tokens = name.lower().split("_")
        if "per" not in tokens:
            return None
        i = tokens.index("per")
        num = cls._CONV_TOKENS.get(tokens[i - 1]) if i > 0 else None
        den = cls._CONV_TOKENS.get(tokens[i + 1]) if i + 1 < len(tokens) else None
        if num is None:
            return None
        return num, den

    @staticmethod
    def _terminal(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _target_key(node: ast.expr) -> str | None:
        """Stable env key for a Name or dotted Attribute chain."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    @staticmethod
    def _is_number(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        )

    # -- callee signature lookup ---------------------------------------
    def _callee_params(
        self, func: ast.expr, ctx: ModuleContext, local_defs: dict
    ) -> tuple[str, ...] | None:
        if isinstance(func, ast.Name) and func.id in local_defs:
            return local_defs[func.id]
        dotted = ctx.resolve(func)
        if dotted is None or ctx.project is None:
            return None
        hit = ctx.project.lookup(dotted)
        if hit is None:
            return None
        _, sym = hit
        return sym.params or None

    # ------------------------------------------------------------------
    def check(self, node: ast.Module, ctx: ModuleContext) -> Iterator[LintFinding]:
        # Signatures of functions/classes defined in this module, for
        # positional-argument checking without a project model.
        local_defs: dict[str, tuple[str, ...]] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args
                names = [a.arg for a in [*args.posonlyargs, *args.args]]
                if names and names[0] in ("self", "cls"):
                    names = names[1:]
                local_defs[stmt.name] = tuple(
                    names + [a.arg for a in args.kwonlyargs]
                )
            elif isinstance(stmt, ast.ClassDef):
                fields = [
                    s.target.id
                    for s in stmt.body
                    if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name)
                    and not s.target.id.startswith("_")
                ]
                for s in stmt.body:
                    if (
                        isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and s.name == "__init__"
                    ):
                        a = s.args
                        fields = [p.arg for p in [*a.posonlyargs, *a.args]][1:]
                        fields += [p.arg for p in a.kwonlyargs]
                        break
                local_defs[stmt.name] = tuple(fields)

        # Analyze module top level as one scope, then every function.
        yield from self._check_scope(node.body, None, ctx, local_defs)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(sub.body, sub, ctx, local_defs)

    # ------------------------------------------------------------------
    def _check_scope(
        self, body, fn, ctx: ModuleContext, local_defs
    ) -> Iterator[LintFinding]:
        env: dict[str, str] = {}
        findings: list[LintFinding] = []
        if fn is not None:
            args = fn.args
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                unit = self._name_unit(a.arg)
                if unit:
                    env[a.arg] = unit
        fn_unit = self._name_unit(fn.name) if fn is not None else None

        def unit_of(node: ast.expr) -> str | None:
            if isinstance(node, ast.Name):
                return env.get(node.id) or self._name_unit(node.id)
            if isinstance(node, ast.Attribute):
                key = self._target_key(node)
                if key is not None and key in env:
                    return env[key]
                return self._name_unit(node.attr)
            if isinstance(node, ast.Subscript):
                return unit_of(node.value)
            if isinstance(node, ast.UnaryOp):
                return unit_of(node.operand)
            if isinstance(node, ast.IfExp):
                return unit_of(node.body) or unit_of(node.orelse)
            if isinstance(node, ast.Call):
                visit_call(node)
                term = self._terminal(node.func)
                if term is not None:
                    if term in self._TRANSPARENT:
                        for arg in node.args:
                            u = unit_of(arg)
                            if u:
                                return u
                        return None
                    u = self._name_unit(term)
                    if u:
                        return u
                return None
            if isinstance(node, ast.BinOp):
                return visit_binop(node)
            if isinstance(node, ast.Compare):
                visit_compare(node)
                return None
            return None

        def flag(node: ast.AST, message: str) -> None:
            findings.append(self.finding(node, ctx, message))

        def visit_binop(node: ast.BinOp) -> str | None:
            lu, ru = unit_of(node.left), unit_of(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if lu and ru and lu != ru:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    flag(
                        node,
                        f"mixed units in `{op}`: left is {lu}, right is "
                        f"{ru}; convert explicitly via an X_PER_Y "
                        "constant",
                    )
                    # Poison the result so one seam flags once, not at
                    # every enclosing operation up the expression tree.
                    return None
                return lu or ru
            lconv = self._conversion(self._terminal(node.left) or "")
            rconv = self._conversion(self._terminal(node.right) or "")
            if isinstance(node.op, ast.Mult):
                if rconv is not None and (lu is None or lu == rconv[1]):
                    return rconv[0]
                if lconv is not None and (ru is None or ru == lconv[1]):
                    return lconv[0]
                if lu and ru:
                    return None  # dimensional product: out of scope
                if lu and self._is_number(node.right):
                    return lu
                if ru and self._is_number(node.left):
                    return ru
                return None
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                if rconv is not None and (lu is None or lu == rconv[0]):
                    return rconv[1]
                if lu and ru:
                    return None  # ratio or rate: out of scope
                if lu and self._is_number(node.right):
                    return lu
                return None
            if isinstance(node.op, ast.Mod):
                return lu
            return None

        def visit_compare(node: ast.Compare) -> None:
            operands = [node.left, *node.comparators]
            units = [unit_of(o) for o in operands]
            for (left, lu), (right, ru) in zip(
                zip(operands, units), zip(operands[1:], units[1:])
            ):
                if lu and ru and lu != ru:
                    flag(
                        left,
                        f"comparison mixes units: {lu} vs {ru}; convert "
                        "explicitly via an X_PER_Y constant",
                    )

        def visit_call(node: ast.Call) -> None:
            params = self._callee_params(node.func, ctx, local_defs)
            callee = self._terminal(node.func) or "<call>"
            if params:
                for arg, param in zip(node.args, params):
                    if isinstance(arg, ast.Starred):
                        break
                    pu = self._name_unit(param)
                    au = unit_of(arg)
                    if pu and au and au != pu:
                        flag(
                            arg,
                            f"argument of unit {au} passed to parameter "
                            f"{param!r} ({pu}) of {callee}()",
                        )
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                pu = self._name_unit(kw.arg)
                au = unit_of(kw.value)
                if pu and au and au != pu:
                    flag(
                        kw.value,
                        f"argument of unit {au} passed to parameter "
                        f"{kw.arg!r} ({pu}) of {callee}()",
                    )

        def visit_stmt(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return  # nested scopes analyzed separately
            if isinstance(stmt, ast.Assign):
                value_unit = unit_of(stmt.value)
                for tgt in stmt.targets:
                    assign_to(tgt, value_unit, stmt)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                assign_to(stmt.target, unit_of(stmt.value), stmt)
            elif isinstance(stmt, ast.AugAssign):
                value_unit = unit_of(stmt.value)
                target_unit = unit_of(stmt.target)
                if (
                    isinstance(stmt.op, (ast.Add, ast.Sub))
                    and value_unit
                    and target_unit
                    and value_unit != target_unit
                ):
                    op = "+=" if isinstance(stmt.op, ast.Add) else "-="
                    flag(
                        stmt,
                        f"`{op}` mixes units: target is {target_unit}, "
                        f"value is {value_unit}",
                    )
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    u = unit_of(stmt.value)
                    if fn_unit and u and u != fn_unit:
                        flag(
                            stmt,
                            f"{fn.name}() is suffixed {fn_unit} but "
                            f"returns a {u} expression",
                        )
            elif isinstance(stmt, ast.Expr):
                unit_of(stmt.value)
            elif isinstance(stmt, (ast.If, ast.While)):
                unit_of(stmt.test)
                for child in [*stmt.body, *stmt.orelse]:
                    visit_stmt(child)
            elif isinstance(stmt, ast.For):
                unit_of(stmt.iter)
                key = self._target_key(stmt.target)
                iter_unit = unit_of(stmt.iter)
                if key is not None and iter_unit:
                    env[key] = iter_unit
                for child in [*stmt.body, *stmt.orelse]:
                    visit_stmt(child)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for child in stmt.body:
                    visit_stmt(child)
            elif isinstance(stmt, ast.Try):
                for child in [*stmt.body, *stmt.orelse, *stmt.finalbody]:
                    visit_stmt(child)
                for handler in stmt.handlers:
                    for child in handler.body:
                        visit_stmt(child)
            elif isinstance(stmt, (ast.Assert,)):
                unit_of(stmt.test)
            elif isinstance(stmt, (ast.Raise,)):
                if stmt.exc is not None:
                    unit_of(stmt.exc)

        def assign_to(tgt: ast.expr, value_unit: str | None, stmt: ast.stmt) -> None:
            if isinstance(tgt, (ast.Tuple, ast.List)):
                for elt in tgt.elts:
                    assign_to(elt, None, stmt)
                return
            key = self._target_key(tgt)
            term = self._terminal(tgt)
            declared = self._name_unit(term) if term is not None else None
            if declared and value_unit and value_unit != declared:
                flag(
                    stmt,
                    f"assigning a {value_unit} expression to "
                    f"{term!r} ({declared})",
                )
            if key is not None:
                resolved = declared or value_unit
                if resolved:
                    env[key] = resolved

        for stmt in body:
            visit_stmt(stmt)
        yield from findings


# ----------------------------------------------------------------------
# SL012 — architecture contract: declared layer DAG vs the import graph.
# ----------------------------------------------------------------------
class ArchitectureContractRule(LintRule):
    """The layering in ``simlint.toml`` is enforced, not aspirational.

    ``[layers] order`` declares the DAG (lowest first, e.g. ``util <
    sim < pcm/core < schemes < memctrl < experiments < cli``).  Against
    the real import graph from phase 1 this rule flags:

    * **upward imports** — a module importing from a strictly higher
      layer (``repro.pcm`` importing ``repro.schemes``); same-layer and
      downward imports are fine, ``if TYPE_CHECKING:`` imports are
      exempt (annotations are not architecture), and ``[layers]
      allowed`` whitelists individual sanctioned edges;
    * **unmapped modules** — anything under the root package that no
      declared layer covers and ``exempt`` does not excuse: growing the
      tree forces updating the contract;
    * **import cycles** — strongly connected components in the
      top-level (non-function, non-typing) import graph; function-level
      imports are the sanctioned cycle break and are excluded;
    * **orphan modules** (warn) — modules nothing imports, with no
      ``__main__`` guard and no ``orphan_ok`` entry; only reported when
      the scan covered the whole root package, so partial scans stay
      quiet.
    """

    id = "SL012"
    title = "architecture-contract violation (layers, cycles, orphans)"
    project_level = True

    def check_project(
        self, project: "ProjectModel", settings: "SimlintSettings"
    ) -> Iterator[LintFinding]:
        if settings is None or not settings.layers:
            return  # no declared contract, nothing to enforce
        root = settings.root_package

        governed = {
            name: info
            for name, info in project.modules.items()
            if name == root or name.startswith(root + ".")
        }

        # -- unmapped modules ------------------------------------------
        for name in sorted(governed):
            if settings.is_layer_exempt(name):
                continue
            if settings.layer_of(name) is None:
                yield self.project_finding(
                    path=governed[name].path,
                    line=1,
                    message=(
                        f"module {name!r} is not covered by any layer in "
                        "simlint.toml [layers] order (add it to a layer "
                        "or to exempt)"
                    ),
                )

        # -- upward imports --------------------------------------------
        for importer, info in sorted(governed.items()):
            if settings.is_layer_exempt(importer):
                continue
            src_layer = settings.layer_of(importer)
            if src_layer is None:
                continue
            for record in info.imports:
                if record.typing_only:
                    continue
                for target in project.resolve_targets(record):
                    if not (target == root or target.startswith(root + ".")):
                        continue
                    if settings.is_layer_exempt(target):
                        continue
                    if settings.edge_allowed(importer, target):
                        continue
                    dst_layer = settings.layer_of(target)
                    if dst_layer is None:
                        continue
                    if dst_layer[0] > src_layer[0]:
                        yield self.project_finding(
                            path=info.path,
                            line=record.line,
                            col=record.col,
                            message=(
                                f"upward import: {importer} (layer "
                                f"{src_layer[1]!r}) imports {target} "
                                f"(higher layer {dst_layer[1]!r}); invert "
                                "the dependency or whitelist the edge in "
                                "simlint.toml [layers] allowed"
                            ),
                        )

        # -- import cycles ---------------------------------------------
        for cycle in project.find_cycles():
            members = [m for m in cycle if m in governed]
            if not members:
                continue
            anchor = governed[members[0]]
            line = 1
            for record in anchor.imports:
                if record.typing_only or record.function_level:
                    continue
                if any(t in cycle for t in project.resolve_targets(record)):
                    line = record.line
                    break
            yield self.project_finding(
                path=anchor.path,
                line=line,
                message=(
                    "import cycle: " + " -> ".join([*cycle, cycle[0]])
                    + " (break it with a function-level import or by "
                    "moving the shared piece down a layer)"
                ),
            )

        # -- orphan modules (whole-tree scans only) --------------------
        if not project.covers_package(root):
            return
        imported: set[str] = set()
        for info in project.modules.values():
            for record in info.imports:
                imported.update(project.resolve_targets(record))
        for name in sorted(governed):
            info = governed[name]
            if info.is_package:
                continue  # packages exist for their children
            if name in imported:
                continue
            if info.has_main_guard:
                continue  # runnable entry point
            if settings.is_orphan_ok(name) or settings.is_layer_exempt(name):
                continue
            yield self.project_finding(
                path=info.path,
                line=1,
                severity="warn",
                message=(
                    f"orphan module: nothing imports {name} and it has no "
                    "__main__ guard; delete it or add it to simlint.toml "
                    "[layers] orphan_ok"
                ),
            )


# ----------------------------------------------------------------------
# SL013 — API drift: docs/API.md vs the static symbol table.
# ----------------------------------------------------------------------
class ApiDriftRule(LintRule):
    """``docs/API.md`` must match the code it documents.

    The reference is generated by ``tools/gen_api_docs.py``; this rule
    replays the same public-surface computation *statically* from the
    phase-1 symbol table (``__all__`` when present, else public
    module-level defs plus instances of same-module classes) and diffs
    it against the committed document:

    * a documented symbol that no longer exists (or went private) —
      flagged at its line in API.md;
    * a public symbol the document omits — flagged at its def site.

    Either way the fix is one command: re-run
    ``PYTHONPATH=src python tools/gen_api_docs.py``.  ``[api] ignore``
    in simlint.toml exempts individual ``module.symbol`` names.  The
    rule only runs when the scan covered the whole root package, so
    partial scans cannot see phantom deletions.
    """

    id = "SL013"
    title = "API reference drift against docs/API.md"
    project_level = True

    _MOD_HEAD = re.compile(r"^## `([^`]+)`\s*$")
    _SYM_HEAD = re.compile(r"^### `([A-Za-z_][A-Za-z0-9_]*)")

    def check_project(
        self, project: "ProjectModel", settings: "SimlintSettings"
    ) -> Iterator[LintFinding]:
        if settings is None or settings.source is None:
            return
        root = settings.root_package
        if not project.covers_package(root):
            return  # partial scan: the symbol table is incomplete
        doc_path = settings.source.parent / settings.api_doc
        try:
            lines = doc_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return  # no reference document, nothing to drift from
        ignore = set(settings.api_ignore)

        # Parse the document: module -> {symbol -> line}.
        documented: dict[str, dict[str, int]] = {}
        doc_mod_lines: dict[str, int] = {}
        current: dict[str, int] | None = None
        for lineno, text in enumerate(lines, start=1):
            m = self._MOD_HEAD.match(text)
            if m:
                current = documented.setdefault(m.group(1), {})
                doc_mod_lines.setdefault(m.group(1), lineno)
                continue
            m = self._SYM_HEAD.match(text)
            if m and current is not None:
                current.setdefault(m.group(1), lineno)

        # Static public surface: non-package modules under the root.
        actual: dict[str, dict[str, int]] = {}
        for name, info in project.modules.items():
            if not (name == root or name.startswith(root + ".")):
                continue
            if info.is_package:
                continue
            surface = project.public_api(name)
            if surface:
                actual[name] = {sym: s.line for sym, s in surface}

        display_doc = str(settings.api_doc)

        for mod in sorted(documented.keys() | actual.keys()):
            doc_syms = documented.get(mod, {})
            act_syms = actual.get(mod, {})
            info = project.modules.get(mod)
            # documented but gone
            for sym in sorted(doc_syms.keys() - act_syms.keys()):
                if f"{mod}.{sym}" in ignore:
                    continue
                yield self.project_finding(
                    path=display_doc,
                    line=doc_syms[sym],
                    message=(
                        f"documented symbol {mod}.{sym} no longer exists "
                        "(or is no longer public); regenerate with "
                        "`PYTHONPATH=src python tools/gen_api_docs.py`"
                    ),
                )
            # public but undocumented
            for sym in sorted(act_syms.keys() - doc_syms.keys()):
                if f"{mod}.{sym}" in ignore:
                    continue
                yield self.project_finding(
                    path=info.path if info is not None else display_doc,
                    line=act_syms[sym],
                    message=(
                        f"public symbol {mod}.{sym} is missing from "
                        f"{display_doc}; regenerate with "
                        "`PYTHONPATH=src python tools/gen_api_docs.py`"
                    ),
                )
            # whole module documented but gone
            if mod not in actual and mod not in project.modules and not doc_syms:
                if mod in ignore:
                    continue
                yield self.project_finding(
                    path=display_doc,
                    line=doc_mod_lines.get(mod, 1),
                    message=(
                        f"documented module {mod} no longer exists; "
                        "regenerate with `PYTHONPATH=src python "
                        "tools/gen_api_docs.py`"
                    ),
                )


# ----------------------------------------------------------------------
# SL014 — supervised parallelism: no bare pools in repro.*.
# ----------------------------------------------------------------------
class UnsupervisedPoolRule(LintRule):
    """Bare ``multiprocessing`` pools bypass the sweep supervisor.

    :class:`repro.parallel.supervisor.WorkerSupervisor` replaced
    ``Pool.imap_unordered`` fan-out and adds the properties every
    ``repro`` sweep relies on: per-cell deadlines (a hung worker cannot
    stall a grid forever), worker-death detection and retry (a
    SIGKILLed worker costs one retry, not a lost cell),
    deterministic backoff, quarantine into structured error rows, and a
    serial fallback instead of an aborted grid.  A bare
    ``multiprocessing.Pool`` (or a direct ``imap``-family dispatch on
    one) silently opts back out of all of that — correct-looking code
    that hangs or aborts exactly when a sweep is big enough to matter.

    Route parallel work through :class:`WorkerSupervisor`,
    :class:`~repro.parallel.engine.SweepEngine`, or
    :func:`~repro.parallel.engine.run_cells`.  Exempt: ``repro.cli``
    (thin command wrappers) and the supervisor module itself (the one
    sanctioned owner of worker processes).
    """

    id = "SL014"
    title = "bare multiprocessing pool bypasses the worker supervisor"
    node_types = (ast.Call,)

    _POOL_CONSTRUCTORS = frozenset(
        {
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
            "multiprocessing.pool.ThreadPool",
            "multiprocessing.dummy.Pool",
            "concurrent.futures.ProcessPoolExecutor",
        }
    )
    # Multiprocessing-specific dispatch spellings: unambiguous no matter
    # what the receiver is called.
    _POOL_ONLY_METHODS = frozenset(
        {"imap", "imap_unordered", "map_async", "starmap", "starmap_async",
         "apply_async"}
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return (
            ctx.in_package("repro")
            and not ctx.in_package("repro.cli")
            and ctx.module != "repro.parallel.supervisor"
        )

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[LintFinding]:
        resolved = ctx.resolve(node.func)
        if resolved in self._POOL_CONSTRUCTORS:
            yield self.finding(
                node,
                ctx,
                f"{resolved} bypasses the worker supervisor: no deadlines, "
                "no death detection, no retry; use "
                "repro.parallel.WorkerSupervisor / SweepEngine / "
                "run_cells instead",
            )
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr == "Pool" and resolved is None:
            # get_context().Pool(...), ctx.Pool(...): the constructor
            # reached through a context object rather than the module.
            yield self.finding(
                node,
                ctx,
                "pool constructed from a multiprocessing context bypasses "
                "the worker supervisor; use repro.parallel.WorkerSupervisor "
                "/ SweepEngine / run_cells instead",
            )
        elif attr in self._POOL_ONLY_METHODS:
            yield self.finding(
                node,
                ctx,
                f".{attr}() dispatches tasks on a bare pool, outside the "
                "supervisor's deadline/retry/quarantine state machine; use "
                "repro.parallel.WorkerSupervisor / SweepEngine / "
                "run_cells instead",
            )


# ----------------------------------------------------------------------
# SL015 — async hygiene: no blocking calls on the service event loop.
# ----------------------------------------------------------------------
class BlockingAsyncCallRule(LintRule):
    """Blocking calls inside ``async def`` stall every tenant at once.

    ``repro.service`` runs one asyncio event loop for *all* tenants: the
    accept loop, every connection handler, every ``watch`` stream, and
    the dispatch loop share it.  A single blocking call inside an
    ``async def`` — ``time.sleep``, a ``subprocess`` wait, a sync socket
    connect, ``select.select``, ``os.fsync``, a bare ``open()`` — parks
    the whole loop, so one tenant's slow disk or dead peer freezes
    admission, progress streaming, and draining for everyone.  That is
    exactly the isolation the service exists to provide.

    Blocking work belongs off-loop: ``await asyncio.sleep`` for delays,
    ``loop.run_in_executor`` for file/cache/journal I/O (the pattern
    every ``repro.service`` module already uses), and asyncio-native
    stream APIs for sockets.  Sync helpers *called through* an executor
    are fine — the rule only looks inside ``async def`` bodies and does
    not descend into nested ``def``/``lambda`` (those run wherever they
    are invoked, typically on an executor thread).
    """

    id = "SL015"
    title = "blocking call inside async def stalls the service event loop"
    node_types = (ast.AsyncFunctionDef,)

    _BLOCKED_CALLS = {
        "time.sleep": "await asyncio.sleep(...) instead",
        "subprocess.run": "run it via loop.run_in_executor or "
        "asyncio.create_subprocess_exec",
        "subprocess.call": "use asyncio.create_subprocess_exec",
        "subprocess.check_call": "use asyncio.create_subprocess_exec",
        "subprocess.check_output": "use asyncio.create_subprocess_exec",
        "subprocess.Popen": "use asyncio.create_subprocess_exec",
        "socket.create_connection": "use asyncio.open_connection",
        "select.select": "await the streams instead of polling them",
        "os.fsync": "fsync via loop.run_in_executor (journal writes "
        "already do)",
    }

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro.service")

    @staticmethod
    def _body_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
        """Calls lexically on this coroutine's own execution path.

        Nested ``def``/``async def``/``lambda`` bodies are skipped: they
        execute wherever they are *called* (an executor thread, another
        task), not on this coroutine's await chain.  Nested async defs
        are still checked — the engine dispatches them as their own
        ``AsyncFunctionDef`` nodes.
        """
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def check(
        self, node: ast.AsyncFunctionDef, ctx: ModuleContext
    ) -> Iterator[LintFinding]:
        for call in self._body_calls(node):
            resolved = ctx.resolve(call.func)
            hint = self._BLOCKED_CALLS.get(resolved or "")
            if hint is not None:
                yield self.finding(
                    call,
                    ctx,
                    f"{resolved}() blocks the shared event loop inside "
                    f"async def {node.name}; {hint}",
                )
            elif isinstance(call.func, ast.Name) and call.func.id == "open":
                yield self.finding(
                    call,
                    ctx,
                    f"open() blocks the shared event loop inside async "
                    f"def {node.name}; do file I/O in a sync helper via "
                    "loop.run_in_executor",
                )


# ----------------------------------------------------------------------
# SL016 — lane independence: fastpath and simulator must not share code.
# ----------------------------------------------------------------------
class LaneIndependenceRule(LintRule):
    """The analytic queueing model only certifies what it does not share.

    ``repro.fastpath`` prices grid cells without running the DES; its
    rows are trusted because the sampled differential recheck re-runs
    them through the *independent* event-driven simulator and compares
    under the agreement bands (docs/ORACLE.md).  Two import directions
    would quietly turn that certificate into a tautology:

    * **fastpath -> DES**: the queueing model importing ``repro.sim`` /
      ``repro.memctrl`` / ``repro.cpu`` would let it answer by calling
      the very event loop, controller and cores the recheck validates
      it against.  The per-write prices are shared on purpose: both
      lanes read one write-service table (``repro.schemes.pricing``),
      and the oracle's table lane checks that table against the paper's
      closed forms for every registered scheme.  The recheck module is
      the sanctioned bridge: it crosses lanes through an injected
      callable, and is exempt here so it can type or drive DES rows
      directly if it ever needs to.
    * **simulator -> fastpath**: a scheme, bank model, controller or
      core importing the fastpath would let production timing derive
      from the analytic model it is differentially checked against.

    ``repro.cli`` reports both lanes and is exempt, like in SL010.
    """

    id = "SL016"
    title = "fastpath/simulator lane-independence violation"
    node_types = (ast.Import, ast.ImportFrom)

    #: the DES the analytic lane is rechecked against.
    _DES_PACKAGES = ("repro.sim", "repro.memctrl", "repro.cpu")
    #: simulator code that must never consume the analytic lane.
    _SIM_PACKAGES = _DES_PACKAGES + ("repro.pcm", "repro.schemes")
    #: the sanctioned lane bridge (dependency-injected DES recheck).
    _BRIDGE = "repro.fastpath.recheck"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro") and not ctx.in_package("repro.cli")

    _targets = staticmethod(OracleIndependenceRule._targets)

    def check(
        self, node: ast.Import | ast.ImportFrom, ctx: ModuleContext
    ) -> Iterator[LintFinding]:
        in_fastpath = ctx.in_package("repro.fastpath")
        is_bridge = ctx.module == self._BRIDGE or ctx.module.startswith(
            self._BRIDGE + "."
        )
        in_simulator = any(
            ctx.in_package(p) for p in self._SIM_PACKAGES
        )
        for target in self._targets(node):
            if in_fastpath and not is_bridge and any(
                target == p or target.startswith(p + ".")
                for p in self._DES_PACKAGES
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"fastpath module {ctx.module} imports {target}; the "
                    "analytic lane must stay independent of the DES it is "
                    "differentially rechecked against (docs/ORACLE.md)",
                )
            elif in_simulator and (
                target == "repro.fastpath"
                or target.startswith("repro.fastpath.")
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"simulator module {ctx.module} imports {target}; "
                    "production timing deriving from the analytic lane "
                    "makes the differential recheck a tautology — only "
                    "the sweep engine and repro.cli may consume fastpath "
                    "results",
                )
