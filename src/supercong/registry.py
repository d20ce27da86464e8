"""Statement registry: loading and validation of the JSON case catalog.

Every verified statement is one registry record.  The schema per record is
id, kind, family, condition, bound(s), summand, closed_form, modulus,
sweep defaults, notes/anchor, plus family-specific payloads (p-adic right
sides, numeric product right sides, pi-series targets).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .exprs import eval_bool, eval_fraction, eval_int
from .qobjects import (
    ClosedFormBranch,
    ClosedLen,
    ModulusFactor,
    ModulusSpec,
    PochFactor,
    SpecError,
    SummandSpec,
    validate_summand_exponents,
)

KINDS = ("theorem", "lemma", "corollary", "conjecture")
FAMILIES = ("q", "q_pair", "padic", "analytic_identity", "pi_series", "gamma_limit")
# the parameter each family sweeps over; a q record sweeps n, or [d, n] pairs
SWEEP_KEYS = {"q": ("grid", "n"), "q_pair": ("n",), "padic": ("p",),
              "analytic_identity": ("q",), "pi_series": ("N",), "gamma_limit": ()}
# the identities analytic.check_identity_numeric evaluates by code, by name
ANALYTIC_BUILTINS = ("rahman",)
# the constants analytic.pi_target evaluates, by name
PI_TARGETS = ("two_sqrt2_over_sqrtpi_gamma34_sq", "neg_sqrt_2pi_over_2_gamma34_sq")


class RegistryError(ValueError):
    """The registry file is malformed or violates a catalog invariant."""


@dataclass(frozen=True)
class PairSide:
    bound: str
    summand: SummandSpec


@dataclass(frozen=True)
class PadicRhsBranch:
    when: str
    kind: str                                  # gamma_ratio | rising_ratio | zero
    num: tuple = ()
    den: tuple = ()
    p_power: int = 0
    sign: int = 1


@dataclass(frozen=True)
class RealSumSpec:
    """Truncated real series: (m k + r) * prod (x_i)_k^{e_i} / (c^k k!^f)."""

    kind: str                                   # "sum" | "rising_ratio"
    prefactor: tuple[str, str] = ("0", "0")
    rising: tuple[tuple[str, int], ...] = ()
    factorial_power: int = 0
    geometric_base: str = "1"
    num: tuple = ()                             # rising_ratio: (base, length-expr)
    den: tuple = ()
    p_power: int = 0


@dataclass(frozen=True)
class ProductSpec:
    """sign * prod (q^e; q^base)_inf over num / the same over den: a q
    record's telescoping right side at a = q^{+-n} (expressions in n and
    d), or an analytic identity's right side (integers)."""

    base: str
    num: tuple[str, ...]
    den: tuple[str, ...]
    sign: int


@dataclass(frozen=True)
class CaseDefinition:
    id: str
    kind: str
    family: str
    anchor: str
    notes: str
    condition: str
    flags: tuple[str, ...] = ()
    sweep: dict = field(default_factory=dict)
    # q family
    d_values: Optional[tuple[int, ...]] = None
    bounds: tuple[str, ...] = ()
    summand: Optional[SummandSpec] = None
    closed_form: Optional[tuple[ClosedFormBranch, ...]] = None
    modulus: Optional[ModulusSpec] = None
    specialized_product: Optional[ProductSpec] = None
    # q_pair family
    lhs_pair: Optional[PairSide] = None
    rhs_pair: Optional[PairSide] = None
    # padic family
    threshold: Optional[int] = None
    padic_bound: Optional[str] = None
    real_lhs: Optional[RealSumSpec] = None
    padic_rhs: Optional[tuple[PadicRhsBranch, ...]] = None
    # analytic families
    builtin: Optional[str] = None
    rhs_product: Optional[ProductSpec] = None
    target: Optional[str] = None
    tol: Optional[float] = None
    x_values: tuple[str, ...] = ()
    q_values: tuple[float, ...] = ()

    @property
    def observe(self) -> bool:
        """Conjectures run in observe mode: recorded, never suite errors."""
        return self.kind == "conjecture"

    @property
    def parametric(self) -> bool:
        """A q record whose summand or modulus carries the parameter a: its
        instances run the a = q^(+-n) legs and the cyclotomic leg over Z[a]."""
        return self.family == "q" and bool(self.modulus.parametric_kinds()
                                           or any(f.param for f in self.summand.factors))

    def applies(self, **params) -> bool:
        """The condition at ``params``.  A condition out of its domain there
        (a division by zero, say) raises ExpressionError, a SpecError, which
        every lane reports as an obstruction."""
        return eval_bool(self.condition, **{"n": None, "d": None, "p": None, **params})


class Registry:
    """An ordered, validated catalog of case definitions."""

    def __init__(self, cases: list[CaseDefinition], digest: str, path: Optional[Path]):
        self.cases = cases
        self.by_id = {}
        for case in cases:
            if case.id in self.by_id:
                raise RegistryError(f"duplicate case id {case.id!r}")
            self.by_id[case.id] = case
        self.digest = digest
        self.path = path

    def __iter__(self):
        return iter(self.cases)

    def __len__(self):
        return len(self.cases)

    def get(self, case_id: str) -> CaseDefinition:
        try:
            return self.by_id[case_id]
        except KeyError:
            raise RegistryError(f"unknown case id {case_id!r}") from None


def _expr(value) -> str:
    """The one reading of a registry expression: a string as it is, a JSON
    integer (not a bool) as its decimal text.  Anything else is refused, and
    _read_case names the record."""
    if isinstance(value, str):
        return value
    if _is_int(value):
        return str(value)
    raise TypeError(f"an expression must be a string or an integer, got {value!r}")


def _int(value) -> int:
    """The one reading of a registry integer field (a power, sign,
    threshold or p-power): a JSON integer, not a bool.  Anything else is
    refused, and _read_case names the record."""
    if _is_int(value):
        return value
    raise TypeError(f"an integer field must be a JSON integer, got {value!r}")


def _number(value) -> float:
    """The one reading of a registry number field (a tol or a q value): a
    JSON integer or float, not a bool or a string, else refused."""
    if _is_number(value):
        return float(value)
    raise TypeError(f"a number field must be a JSON number, got {value!r}")


def _exprs(values) -> tuple[str, ...]:
    return tuple(map(_expr, values))


def _pairs(values) -> tuple[tuple[str, str], ...]:
    """(base, length) pairs of rising factorials, as expressions."""
    return tuple((_expr(base), _expr(length)) for base, length in values)


def _summand_from_json(obj: dict) -> SummandSpec:
    factors = tuple(
        PochFactor(
            exp=_expr(f["exp"]),
            step=_expr(f["step"]),
            side=f["side"],
            power=_int(f.get("power", 1)),
            param=f.get("param", ""),
        )
        for f in obj["factors"]
    )
    m, r = _exprs(obj["prefactor"])
    return SummandSpec(prefactor_m=m, prefactor_r=r, q_exp=_exprs(obj["q_exp"]), factors=factors)


def _closed_branch_from_json(b: dict) -> ClosedFormBranch:
    if b["kind"] not in ("ratio", "zero"):
        raise ValueError(f"a closed-form kind must be 'ratio' or 'zero', got {b['kind']!r}")
    if not isinstance(b.get("n_multiplier", False), bool):
        raise TypeError(f"n_multiplier must be true or false, got {b['n_multiplier']!r}")
    return ClosedFormBranch(
        when=_expr(b["when"]),
        kind=b["kind"],
        num=tuple(ClosedLen(*_exprs((f["exp"], f["step"], f["length"]))) for f in b.get("num", ())),
        den=tuple(ClosedLen(*_exprs((f["exp"], f["step"], f["length"]))) for f in b.get("den", ())),
        n_multiplier=b.get("n_multiplier", False),
        q_shift=_expr(b.get("q_shift", "0")),
        sign=_int(b.get("sign", 1)),
    )


def _product_from_json(obj: dict) -> ProductSpec:
    """A specialized_product or an rhs_product."""
    return ProductSpec(base=_expr(obj["base"]), num=_exprs(obj["num"]), den=_exprs(obj["den"]),
                       sign=_int(obj.get("sign", 1)))


def _modulus_from_json(obj: dict) -> ModulusSpec:
    return ModulusSpec(
        factors=tuple(
            ModulusFactor(kind=f["kind"], power=_int(f.get("power", 1))) for f in obj["factors"]
        )
    )


def _real_sum_from_json(obj: dict) -> RealSumSpec:
    return RealSumSpec(
        kind=obj["kind"],
        prefactor=_exprs(obj.get("prefactor", ("0", "0"))),
        rising=tuple((_expr(base), _int(power)) for base, power in obj.get("rising", ())),
        factorial_power=_int(obj.get("factorial_power", 0)),
        geometric_base=_expr(obj.get("geometric_base", "1")),
        num=_pairs(obj.get("num", ())),
        den=_pairs(obj.get("den", ())),
        p_power=_int(obj.get("p_power", 0)),
    )


def _padic_rhs_from_json(obj: dict) -> PadicRhsBranch:
    # a rising ratio multiplies (base, length) pairs, a Gamma_p ratio arguments
    read = _pairs if obj["kind"] == "rising_ratio" else _exprs
    return PadicRhsBranch(when=_expr(obj["when"]), kind=obj["kind"], num=read(obj.get("num", ())),
                          den=read(obj.get("den", ())), p_power=_int(obj.get("p_power", 0)),
                          sign=_int(obj.get("sign", 1)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _sweep_value_ok(key: str, value) -> bool:
    if key == "grid":
        return isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
    if key == "q":
        return _is_number(value)
    return _is_int(value)


def _sweep_from_json(case_id: str, family: str, sweep) -> dict:
    """The record's default grid: an object whose one key, if its family
    has one, is the parameter it sweeps over, holding a list of values."""
    keys = SWEEP_KEYS[family]
    if not isinstance(sweep, dict) or not set(sweep) <= set(keys) or len(sweep) != min(len(keys), 1):
        expected = " or ".join(repr(key) for key in keys) or "no key"
        raise RegistryError(f"{case_id}: sweep must be an object with {expected}, got {sweep!r}")
    for key, values in sweep.items():
        if not isinstance(values, list) or not all(_sweep_value_ok(key, v) for v in values):
            raise RegistryError(f"{case_id}: sweep {key!r} must be a list of "
                                + {"grid": "[d, n] integer pairs", "q": "numbers"}.get(key, "integers"))
    return sweep


def _case_from_json(obj: dict) -> CaseDefinition:
    case_id = obj.get("id")
    if not case_id or not isinstance(case_id, str):
        raise RegistryError("case without id")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise RegistryError(f"{case_id}: unknown kind {kind!r}")
    family = obj.get("family")
    if family not in FAMILIES:
        raise RegistryError(f"{case_id}: unknown family {family!r}")

    kwargs = dict(
        id=case_id,
        kind=kind,
        family=family,
        anchor=obj.get("anchor", ""),
        notes=obj.get("notes", ""),
        condition=_expr(obj.get("condition", "True")),
        flags=tuple(obj.get("flags", ())),
        sweep=_sweep_from_json(case_id, family, obj.get("sweep", {})),
    )

    if family in ("q",):
        kwargs.update(
            d_values=tuple(obj["d_values"]) if obj.get("d_values") else None,
            bounds=_exprs(obj["bounds"]),
            summand=_summand_from_json(obj["summand"]),
            closed_form=tuple(map(_closed_branch_from_json, obj["closed_form"])),
            modulus=_modulus_from_json(obj["modulus"]),
        )
        if "specialized_product" in obj:
            kwargs.update(specialized_product=_product_from_json(obj["specialized_product"]))
    elif family == "q_pair":
        kwargs.update(
            lhs_pair=PairSide(_expr(obj["lhs"]["bound"]), _summand_from_json(obj["lhs"]["summand"])),
            rhs_pair=PairSide(_expr(obj["rhs"]["bound"]), _summand_from_json(obj["rhs"]["summand"])),
            modulus=_modulus_from_json(obj["modulus"]),
        )
    elif family == "padic":
        kwargs.update(
            threshold=_int(obj["threshold"]),
            padic_bound=None if obj.get("bound") is None else _expr(obj["bound"]),
            real_lhs=_real_sum_from_json(obj["lhs"]),
            padic_rhs=tuple(map(_padic_rhs_from_json, obj["rhs"])),
        )
    elif family == "analytic_identity":
        kwargs.update(builtin=obj.get("builtin"), tol=_number(obj.get("tol", 1e-10)))
        if kwargs["builtin"] is None:   # a summand against an infinite product
            kwargs.update(summand=_summand_from_json(obj["summand"]),
                          rhs_product=_product_from_json(obj["rhs_product"]))
        elif kwargs["builtin"] not in ANALYTIC_BUILTINS:
            raise RegistryError(f"{case_id}: unknown analytic builtin {kwargs['builtin']!r}")
    elif family == "pi_series":
        kwargs.update(
            real_lhs=_real_sum_from_json(obj["lhs"]),
            target=obj["target"],
            tol=_number(obj.get("tol", 1e-9)),
        )
    elif family == "gamma_limit":
        kwargs.update(
            x_values=_exprs(obj.get("x_values", ())),
            q_values=tuple(map(_number, obj.get("q_values", ()))),
        )
    return CaseDefinition(**kwargs)


def _validate_case(case: CaseDefinition) -> None:
    summands = [spec for spec in (case.summand, case.lhs_pair and case.lhs_pair.summand,
                                  case.rhs_pair and case.rhs_pair.summand) if spec is not None]
    if case.family in ("q_pair", "analytic_identity") \
            and any(f.param for spec in summands for f in spec.factors):
        raise RegistryError(f"{case.id}: the parameter a in a {case.family!r} summand "
                            "(only q records read it)")
    for spec in summands:   # an analytic_identity summand is read with d unbound
        for d in case.d_values or (None,):
            try:
                validate_summand_exponents(spec, d)
            except SpecError as exc:
                raise RegistryError(f"{case.id}: {exc}") from exc
    if case.family in ("q", "q_pair"):
        for spec in summands:
            num_div = sum(1 for f in spec.factors if f.side == "num" and f.param == "q_div_a")
            den_div = sum(1 for f in spec.factors if f.side == "den" and f.param == "q_div_a")
            if num_div != den_div:
                raise RegistryError(
                    f"{case.id}: unbalanced q/a factors ({num_div} num vs {den_div} den)"
                )
        parametric = case.modulus.parametric_kinds()
        has_params = any(f.param for f in (case.summand.factors if case.summand else ()))
        if parametric and not has_params:
            raise RegistryError(f"{case.id}: parametric modulus without parametric summand")
        if parametric and case.specialized_product is None:
            raise RegistryError(f"{case.id}: parametric modulus needs specialized_product")
        if not case.modulus.factors:
            raise RegistryError(f"{case.id}: empty modulus")
    if case.family == "q":
        _validate_q_plan(case)
    if case.family == "padic":
        if case.threshold is None or case.threshold < 1:
            raise RegistryError(f"{case.id}: p-adic threshold must be >= 1")
        for branch in case.padic_rhs:
            if branch.kind not in ("gamma_ratio", "rising_ratio", "zero"):
                raise RegistryError(f"{case.id}: unknown p-adic rhs kind {branch.kind!r}")
        if case.real_lhs.kind not in ("sum", "rising_ratio"):
            raise RegistryError(f"{case.id}: unknown p-adic lhs kind {case.real_lhs.kind!r}")
        if case.real_lhs.kind == "sum" and case.padic_bound is None:
            raise RegistryError(f"{case.id}: a p-adic sum needs a bound expression")
    if case.real_lhs is not None and case.real_lhs.kind == "sum" \
            and eval_fraction(case.real_lhs.geometric_base) == 0:
        raise RegistryError(f"{case.id}: zero geometric base")
    _validate_numeric(case)


def _validate_q_plan(case: CaseDefinition) -> None:
    """A q record plans what verify_q decides: one bound when the parameter
    a is in its summand or modulus (a parametric instance is decided at the
    first bound), and a [d, n] grid exactly when it has d values, every d
    of the grid one of them."""
    if not case.bounds:
        raise RegistryError(f"{case.id}: a q record needs a bound")
    if case.parametric and len(case.bounds) > 1:
        raise RegistryError(f"{case.id}: a parametric record takes one bound, got {len(case.bounds)}")
    if bool(case.d_values) != ("grid" in case.sweep):
        raise RegistryError(f"{case.id}: a q record sweeps a [d, n] grid exactly when it has d_values")
    for d, _ in case.sweep.get("grid", ()):
        if d not in case.d_values:
            raise RegistryError(f"{case.id}: sweep d={d} is not one of its d_values {list(case.d_values)}")


def valid_tolerance(tol: float) -> bool:
    """The one rule for a tolerance, a record's tol or a run's --tol."""
    return tol >= 0 and math.isfinite(tol)


def _validate_numeric(case: CaseDefinition) -> None:
    """The numeric families' values lie in the domains analytic.py checks at
    run time, so a bad one is refused here instead of ending in an error."""
    for x in case.x_values:
        try:
            value = eval_fraction(x)
        except SpecError as exc:
            raise RegistryError(f"{case.id}: x value {x!r}: {exc}") from exc
        if value <= 0:
            raise RegistryError(f"{case.id}: x value {x!r} is not positive")
    for q in case.q_values:
        if not 0 < q < 1:
            raise RegistryError(f"{case.id}: q value {q!r} is not inside (0, 1)")
    for q in case.sweep.get("q", ()):
        if not 0 < abs(q) < 1:
            raise RegistryError(f"{case.id}: sweep q {q!r} is not inside 0 < |q| < 1")
    for terms in case.sweep.get("N", ()):
        if terms < 0:
            raise RegistryError(f"{case.id}: sweep N {terms} is negative")
    if case.family == "pi_series" and case.target not in PI_TARGETS:
        raise RegistryError(f"{case.id}: unknown pi-series target {case.target!r}")
    if case.tol is not None and not valid_tolerance(case.tol):
        raise RegistryError(f"{case.id}: tolerance must be a finite nonnegative number, got {case.tol}")
    if case.rhs_product is not None:
        product = case.rhs_product
        for entry in (product.base, *product.num, *product.den):
            try:
                eval_int(entry)
            except SpecError as exc:
                raise RegistryError(f"{case.id}: rhs_product entry {entry!r}: {exc}") from exc
        if eval_int(product.base) < 1:
            raise RegistryError(f"{case.id}: rhs_product base {product.base!r} is not positive")


def default_registry_path() -> Path:
    return Path(str(resources.files("supercong") / "data" / "cases.json"))


def load_registry(path: Optional[Path | str] = None) -> Registry:
    """Parse and validate a registry file (the shipped catalog by default)."""
    path = Path(path) if path is not None else default_registry_path()
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"registry {path} is not valid JSON: {exc}") from exc
    if (not isinstance(doc, dict) or not isinstance(doc.get("cases"), list)
            or not all(isinstance(obj, dict) for obj in doc["cases"])):
        raise RegistryError("registry document must be an object with a 'cases' list of objects")
    return Registry([_read_case(obj) for obj in doc["cases"]], digest, path)


def _read_case(obj: dict) -> CaseDefinition:
    """One record, parsed and validated; a missing field or a value of the
    wrong type or form anywhere in it is a RegistryError naming the record."""
    try:
        case = _case_from_json(obj)
        _validate_case(case)
        return case
    except RegistryError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise RegistryError(
            f"{obj.get('id')}: malformed record: {type(exc).__name__}: {exc}"
        ) from exc


def iter_sweep_params(case: CaseDefinition) -> list[dict]:
    """The registry's default parameter grid for a case, as param dicts."""
    if not case.sweep:
        return [{}]
    if "grid" in case.sweep:
        return [{"d": d, "n": n} for d, n in case.sweep["grid"]]
    [(key, values)] = case.sweep.items()
    return [{key: value} for value in values]
