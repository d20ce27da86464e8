"""Statement registry: loading and validation of the JSON case catalog.

Every verified statement is one registry record.  Which keys each shape of
the file may have, which are required and how each value is read is one
table; calling the reader of a shape walks it.  A key the table does not
know, a missing required key or a value outside its reader's domain is
refused at load, naming the record and the key's path.  ``_validate_case``
then checks what no single key can (a parametric record's one bound, say),
and refuses a record the same way.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Callable, Optional

from .exprs import eval_bool, eval_fraction, eval_int
from .qobjects import (
    MODULUS_KINDS,
    ClosedFormBranch,
    ClosedLen,
    ModulusFactor,
    ModulusSpec,
    PochFactor,
    SpecError,
    SummandSpec,
    concretize_summand,
    paired,
)

KINDS = ("theorem", "lemma", "corollary", "conjecture")
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
    sign: int = 1


@dataclass(frozen=True)
class CaseDefinition:
    id: str
    kind: str
    family: str
    anchor: str = ""
    notes: str = ""
    condition: str = "True"
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
        instances run the a = q^(+-n) legs and the cyclotomic leg over Z[b],
        b = a + 1/a, each (aq^c; q^s)(q^c/a; q^s) pair of its summand one
        factor there."""
        return self.family == "q" and bool(self.modulus.parametric_kinds()
                                           or any(f.param for f in self.summand.factors))

    def applies(self, **params) -> bool:
        """The condition at ``params``.  A condition out of its domain there
        (a division by zero, say) raises ExpressionError, a SpecError, which
        every lane reports as an obstruction."""
        return eval_bool(self.condition, **{"n": None, "d": None, "p": None, **params})


class Registry:
    """An ordered, validated catalog of case definitions."""

    def __init__(self, cases: list[CaseDefinition], digest: str):
        self.cases = cases
        self.by_id = {}
        for case in cases:
            if case.id in self.by_id:
                raise RegistryError(f"duplicate case id {case.id!r}")
            self.by_id[case.id] = case
        self.digest = digest

    def __iter__(self):
        return iter(self.cases)

    def __len__(self):
        return len(self.cases)

    def get(self, case_id: str) -> CaseDefinition:
        try:
            return self.by_id[case_id]
        except KeyError:
            raise RegistryError(f"unknown case id {case_id!r}") from None


class _Refused(Exception):
    """A value the key table refuses.  Its path grows from the key at fault
    outward as the walk unwinds, so a record that loads builds no path."""

    def __init__(self, what: str, *path, names_key: bool = False):
        super().__init__(what)
        self.what, self.path, self.names_key = what, list(path), names_key

    def __str__(self) -> str:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path).lstrip(".")
        if self.names_key:
            return f"{self.what} '{path}'"
        return f"{path}: {self.what}" if path else self.what


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _expr(value) -> str:
    """The one reading of a registry expression: a string as it is, a JSON
    integer (not a bool) as its decimal text."""
    if isinstance(value, str):
        return value
    if _is_int(value):
        return str(value)
    raise _Refused(f"an expression must be a string or an integer, got {value!r}")


def _checked(accepts: Callable, what: str, convert: Optional[Callable] = None):
    """The reader of a value ``accepts`` holds for, as ``convert`` reads it
    (as it is without one); any other is refused as "<what>, got <value>"."""
    def read(value):
        if accepts(value):
            return convert(value) if convert else value
        raise _Refused(f"{what}, got {value!r}")
    return read


def _number(accepts: Callable, what: str):
    """The reader of a JSON integer or float (not a bool) ``accepts`` holds
    for, read as a float: a tol or a q value, in the domain analytic.py needs."""
    return _checked(lambda v: (_is_int(v) or isinstance(v, float)) and accepts(v), what, float)


def _constant(evaluate: Callable, accepts: Callable = lambda value: True, what: str = ""):
    """The reader of an expression with no name in it whose value by
    ``evaluate`` ``accepts`` holds for: a value the evaluator cannot give is
    refused by the evaluator's message, any other as "<what>, got <value>"."""
    def value_of(raw):
        try:
            return evaluate(_expr(raw))
        except SpecError as exc:
            raise _Refused(str(exc)) from None
    return _checked(lambda raw: accepts(value_of(raw)), what, _expr)


def valid_tolerance(tol: float) -> bool:
    """The one rule for a tolerance, a record's tol or a run's --tol: finite
    and >= 0, also for a JSON integer too large to read as a float."""
    return 0 <= tol <= sys.float_info.max


# an integer field (a sign, a p-power, a sweep value) is a JSON integer, not a bool
_int = _checked(_is_int, "an integer field must be a JSON integer")
_positive = _checked(lambda v: _is_int(v) and v >= 1, "must be a JSON integer >= 1")
_terms = _checked(lambda v: _is_int(v) and v >= 0, "must be a JSON integer >= 0")
_tol = _number(valid_tolerance, "a tolerance must be a finite JSON number >= 0")
_q_in_0_1 = _number(lambda q: 0 < q < 1, "must be a JSON number in (0, 1)")
_q_in_disc = _number(lambda q: 0 < abs(q) < 1, "must be a JSON number with 0 < |q| < 1")
_bool = _checked(lambda v: isinstance(v, bool), "must be true or false")
_text = _checked(lambda v: isinstance(v, str), "must be a string")


def _one_of(*choices):
    """The reader of a name that must be one of ``choices``."""
    return _checked(choices.__contains__, f"must be one of {choices}")


class _Key:
    """One key of a shape: its reader, the dataclass field it fills when that
    is not the key, what an absent key reads as (the two tol defaults only)
    and whether it is required."""

    def __init__(self, reader: Callable, field=None, default=None, required=False):
        self.reader, self.field, self.default, self.required = reader, field, default, required


_opt, _req = _Key, partial(_Key, required=True)   # _req(reader, field=None)


class _Shape:
    """A JSON object: every key it may have, and what its values build.  A
    null value is an absent key; an absent optional key is left out, so
    the dataclass default applies.  A shape, a list (_List) and a shape
    chosen by a key (_ByKey) are readers like _expr, and together the
    walker: reading a record is calling the reader of its shape."""

    def __init__(self, build: Callable, keys: dict[str, _Key]):
        self.build, self.keys = build, keys
        self.readers = {key: (spec.field or key, spec.reader) for key, spec in keys.items()}
        self.absent = [(key, spec.required, spec.field or key, spec.default)
                       for key, spec in keys.items() if spec.required or spec.default is not None]

    def __call__(self, value):
        if not isinstance(value, dict):
            raise _Refused(f"must be an object, got {value!r}")
        kwargs = {}
        for key, raw in value.items():
            entry = self.readers.get(key)
            if entry is None:
                raise _Refused("unknown key", key, names_key=True)
            if raw is not None:
                try:
                    kwargs[entry[0]] = entry[1](raw)
                except _Refused as exc:
                    exc.path.insert(0, key)
                    raise
        for key, required, name, default in self.absent:
            if value.get(key) is None:
                if required:
                    raise _Refused("missing key", key, names_key=True)
                kwargs[name] = default
        return self.build(**kwargs)


class _ByKey:
    """A JSON object whose shape its ``key`` names: a record's family, or
    the kind of a real sum or of a p-adic branch."""

    def __init__(self, key: str, shapes: dict[str, _Shape]):
        self.key, self.shapes = key, shapes

    def __call__(self, value):
        if not isinstance(value, dict):
            raise _Refused(f"must be an object, got {value!r}")
        name = value.get(self.key)
        if isinstance(name, str) and name in self.shapes:
            return self.shapes[name](value)
        for key in value:   # a key no shape knows is refused first
            if all(key not in shape.keys for shape in self.shapes.values()):
                raise _Refused("unknown key", key, names_key=True)
        if name is None:
            raise _Refused("missing key", self.key, names_key=True)
        raise _Refused(f"must be one of {tuple(self.shapes)}, got {name!r}", self.key)


class _List:
    """A JSON list read into ``into``: every item by ``item``, or, for a row,
    one reader per place, so its length is fixed.  A ``nonempty`` list has
    an item."""

    def __init__(self, item: Optional[Callable] = None, row: tuple = (), into: type = tuple,
                 nonempty: bool = False):
        self.item, self.row, self.into, self.nonempty = item, row, into, nonempty

    def __call__(self, value):
        if not isinstance(value, list) or self.row and len(value) != len(self.row) \
                or self.nonempty and not value:
            raise _Refused(f"must be a {'nonempty ' * self.nonempty}list"
                           f"{f' of {len(self.row)}' if self.row else ''}, got {value!r}")
        out = []
        for read, raw in zip(self.row or repeat(self.item), value):
            try:
                out.append(read(raw))
            except _Refused as exc:
                exc.path.insert(0, len(out))
                raise
        return self.into(out)


# The key table: every shape of cases.json, each key of it with its reader.
_EXPRS = _List(_expr)
_PAIRS = _List(_List(row=(_expr, _expr)))
_INTS = _List(_int, into=list)
_SUMMAND = _Shape(lambda prefactor, **rest: SummandSpec(*prefactor, **rest), {
    "prefactor": _req(_List(row=(_expr, _expr))),
    "q_exp": _req(_List(row=(_expr, _expr, _expr))),
    "factors": _req(_List(_Shape(PochFactor, {
        "exp": _req(_expr), "step": _req(_expr), "side": _req(_one_of("num", "den")),
        "power": _opt(_positive), "param": _opt(_one_of("", "aq", "q_div_a"))}))),
})
_CLOSED_LENGTHS = _List(_Shape(ClosedLen, {"exp": _req(_expr), "step": _req(_expr),
                                           "length": _req(_expr)}))
_CLOSED_BRANCH = _Shape(ClosedFormBranch, {
    "when": _req(_expr), "kind": _req(_one_of("ratio", "zero")), "num": _opt(_CLOSED_LENGTHS),
    "den": _opt(_CLOSED_LENGTHS), "n_multiplier": _opt(_bool), "q_shift": _opt(_expr),
    "sign": _opt(_int)})
_MODULUS = _Shape(ModulusSpec, {"factors": _req(_List(_Shape(ModulusFactor, {
    "kind": _req(_one_of(*MODULUS_KINDS)), "power": _opt(_positive)}), nonempty=True))})
_PRODUCT = _Shape(ProductSpec, {"base": _req(_expr), "num": _req(_EXPRS), "den": _req(_EXPRS),
                                "sign": _opt(_int)})
# an analytic identity's product is evaluated with no name bound
_INTEGERS = _List(_constant(eval_int))
_RHS_PRODUCT = _Shape(ProductSpec, {
    "base": _req(_constant(eval_int, lambda base: base >= 1, "must be a constant integer >= 1")),
    "num": _req(_INTEGERS), "den": _req(_INTEGERS), "sign": _opt(_int)})
_PAIR_SIDE = _Shape(PairSide, {"bound": _req(_expr), "summand": _req(_SUMMAND)})
_SUM = _Shape(RealSumSpec, {
    "kind": _req(_text), "prefactor": _opt(_List(row=(_expr, _expr))),
    "rising": _opt(_List(_List(row=(_expr, _int)))), "factorial_power": _opt(_int),
    "geometric_base": _opt(_constant(eval_fraction, lambda base: base != 0,
                                     "must be a nonzero constant"))})
_RISING_RATIO = _Shape(RealSumSpec, {"kind": _req(_text), "num": _opt(_PAIRS),
                                     "den": _opt(_PAIRS), "p_power": _opt(_int)})
_BRANCH = {"when": _req(_expr), "kind": _req(_text)}   # a zero branch has no more keys
_PADIC_BRANCH = _ByKey("kind", {"zero": _Shape(PadicRhsBranch, _BRANCH), **{
    kind: _Shape(PadicRhsBranch, {**_BRANCH, "num": _opt(entries), "den": _opt(entries),
                                  "p_power": _opt(_int), "sign": _opt(_int)})
    for kind, entries in (("gamma_ratio", _EXPRS), ("rising_ratio", _PAIRS))}})
_RECORD = {"id": _req(_text), "kind": _req(_one_of(*KINDS)), "family": _req(_text),
           "anchor": _opt(_text), "notes": _opt(_text), "condition": _opt(_expr),
           "flags": _opt(_List(_text))}
# each family's keys; its sweep holds the values of the parameter it sweeps
_CASE = _ByKey("family", {family: _Shape(CaseDefinition, {**_RECORD, **keys}) for family, keys in {
    "q": {"sweep": _req(_Shape(dict, {"grid": _opt(_List(_List(row=(_int, _int), into=list),
                                                         into=list)), "n": _opt(_INTS)})),
          "d_values": _opt(_List(_int)), "bounds": _req(_List(_expr, nonempty=True)),
          "summand": _req(_SUMMAND), "closed_form": _req(_List(_CLOSED_BRANCH)),
          "modulus": _req(_MODULUS), "specialized_product": _opt(_PRODUCT)},
    "q_pair": {"sweep": _req(_Shape(dict, {"n": _req(_INTS)})), "lhs": _req(_PAIR_SIDE, "lhs_pair"),
               "rhs": _req(_PAIR_SIDE, "rhs_pair"), "modulus": _req(_MODULUS)},
    "padic": {"sweep": _req(_Shape(dict, {"p": _req(_INTS)})), "threshold": _req(_positive),
              "bound": _opt(_expr, "padic_bound"),
              "lhs": _req(_ByKey("kind", {"sum": _SUM, "rising_ratio": _RISING_RATIO}), "real_lhs"),
              "rhs": _req(_List(_PADIC_BRANCH), "padic_rhs")},
    "analytic_identity": {"sweep": _req(_Shape(dict, {"q": _req(_List(_q_in_disc, into=list))})),
                          "builtin": _opt(_one_of(*ANALYTIC_BUILTINS)), "summand": _opt(_SUMMAND),
                          "rhs_product": _opt(_RHS_PRODUCT), "tol": _opt(_tol, default=1e-10)},
    "pi_series": {"sweep": _req(_Shape(dict, {"N": _req(_List(_terms, into=list))})),
                  "lhs": _req(_ByKey("kind", {"sum": _SUM}), "real_lhs"),
                  "target": _req(_one_of(*PI_TARGETS)), "tol": _opt(_tol, default=1e-9)},
    "gamma_limit": {"sweep": _opt(_Shape(dict, {})),
                    "x_values": _opt(_List(_constant(eval_fraction, lambda x: x > 0,
                                                     "must be a constant > 0"))),
                    "q_values": _opt(_List(_q_in_0_1))},
}.items()})


def _validate_case(case: CaseDefinition) -> None:
    """The rules that read two or more keys of a record.  Every summand
    compiles at each of the record's d values (an analytic_identity summand
    with d unbound), which checks its q-exponent, and pairs there
    (qobjects.paired): each (aq^c; q^s)^p with a (q^c/a; q^s)^p of its
    side.  Its q/a factors balance by power between the sides, so the 1/a
    units the oracle's avatars strip cancel.  A q record plans what
    verify_q decides: one bound when the parameter a is in its summand or
    modulus (a parametric instance is decided at the first bound), and a
    [d, n] grid exactly when it has d values, every d of the grid one of
    them."""
    if case.family == "analytic_identity" and \
            (case.summand is not None, case.rhs_product is not None) != (case.builtin is None,) * 2:
        raise _Refused("an analytic identity has a builtin, or else a summand and an rhs_product")
    summands = [spec for spec in (case.summand, case.lhs_pair and case.lhs_pair.summand,
                                  case.rhs_pair and case.rhs_pair.summand) if spec is not None]
    if case.family in ("q_pair", "analytic_identity") \
            and any(f.param for spec in summands for f in spec.factors):
        raise _Refused(f"the parameter a in a {case.family!r} summand (only q records read it)")
    for spec in summands:
        num, den = (sum(f.power for f in spec.factors if f.param == "q_div_a" and f.side == side)
                    for side in ("num", "den"))
        if num != den:
            raise _Refused(f"unbalanced q/a factors (total power {num} num vs {den} den)")
        for d in case.d_values or (None,):
            try:
                paired(concretize_summand(spec, d))
            except SpecError as exc:
                raise _Refused(str(exc)) from None
    if case.family in ("q", "q_pair"):
        parametric = case.modulus.parametric_kinds()
        has_params = any(f.param for f in (case.summand.factors if case.summand else ()))
        if parametric and not has_params:
            raise _Refused("parametric modulus without parametric summand")
        if parametric and case.specialized_product is None:
            raise _Refused("parametric modulus needs specialized_product")
    if case.family == "q":
        if case.parametric and len(case.bounds) > 1:
            raise _Refused(f"a parametric record takes one bound, got {len(case.bounds)}")
        if set(case.sweep) != {"grid" if case.d_values else "n"}:
            raise _Refused("a q record sweeps a [d, n] grid exactly when it has d_values, "
                           "and n values otherwise")
        for d, _ in case.sweep.get("grid", ()):
            if d not in case.d_values:
                raise _Refused(f"sweep d={d} is not one of its d_values {list(case.d_values)}")
    if case.family == "padic" and case.real_lhs.kind == "sum" and case.padic_bound is None:
        raise _Refused("a p-adic sum needs a bound expression")


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
    try:
        cases = _DOCUMENT(doc)["cases"]
    except _Refused as exc:
        raise RegistryError(f"registry document: {exc}") from None
    return Registry(cases, digest)


def _read_case(obj) -> CaseDefinition:
    """One record, read by the key table and validated; a refusal anywhere in
    it is a RegistryError naming the record."""
    if not isinstance(obj, dict):
        raise _Refused(f"a record must be an object, got {obj!r}")
    try:
        case = _CASE(obj)
        _validate_case(case)
    except _Refused as exc:
        name = obj["id"] if isinstance(obj.get("id"), str) else "a record without an id"
        raise RegistryError(f"{name}: {exc}") from None
    return case


_DOCUMENT = _Shape(dict, {"format": _opt(_int), "cases": _req(_List(_read_case, into=list))})


def iter_sweep_params(case: CaseDefinition) -> list[dict]:
    """The registry's default parameter grid for a case, as param dicts."""
    if not case.sweep:
        return [{}]
    if "grid" in case.sweep:
        return [{"d": d, "n": n} for d, n in case.sweep["grid"]]
    [(key, values)] = case.sweep.items()
    return [{key: value} for value in values]
