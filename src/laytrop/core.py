"""Layered scalars: pairs (layer, value) over a sorting semiring of layers.

A scalar carries a *value* from a totally ordered monoid written additively
in log-notation (the multiplicative unit is the value 0, and 2*3 = 5), and a
*layer* from a sorting semiring.  Addition keeps the larger value; on ties
the layers add, so layers count accumulated ties.  Multiplication is
componentwise.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError

#: Absorbing infinite layer, shared by all sort flavors that contain it.
INF = float("inf")

Layer = Union[int, float]


def format_layer(layer: Layer) -> str:
    return "inf" if layer == INF else str(layer)


def power(x, m: int, mul, one):
    """x ** m under an associative ``mul`` by square-and-multiply; ``one`` if m <= 0."""
    result = None
    while m > 0:
        if m & 1:
            result = x if result is None else mul(result, x)
        m >>= 1
        if m:
            x = mul(x, x)
    return one if result is None else result


def exact(v, what: str = "value"):
    """``v`` if it is an exact rational, an int (not a bool) or a Fraction, else DomainError."""
    if type(v) is not int and not isinstance(v, Fraction):
        raise DomainError(f"{what} {v!r} is not an int or a Fraction")
    return v


# ---------------------------------------------------------------------------
# Sort (layer) flavors


class SortFlavor:
    """Arithmetic of one layer semiring.  Layers are totally ordered numerically:
    ints and inf, never bools or other numbers such as 1.0."""

    name = "?"

    def check(self, k: Layer) -> Layer:
        """Return ``k`` if it belongs to this flavor, else raise DomainError."""
        raise NotImplementedError

    def add(self, k: Layer, l: Layer) -> Layer:
        raise NotImplementedError

    def mul(self, k: Layer, l: Layer) -> Layer:
        raise NotImplementedError

    def is_ghost_sort(self, m: Layer, ell: Layer) -> bool:
        """Whether m = ell + k for some layer k, i.e. m records surplus ties over ell."""
        raise NotImplementedError

    def pow(self, k: Layer, m: int) -> Layer:
        """k to the m-th power under ``mul``; only layer 1 inverts."""
        if m < 0 and k != 1:
            raise DomainError(f"layer {format_layer(k)} is not invertible")
        return power(k, m, self.mul, 1)

    def __repr__(self):
        return f"<sorts {self.name}>"


class TrivialSorts(SortFlavor):
    """The one-layer flavor {1}: classical max-plus, with idempotent 1 + 1 = 1.

    Every sort is a ghost sort here (1 = 1 + 1), so ghost-based root
    detection degenerates; polynomial code special-cases this flavor.
    """

    name = "trivial"

    def check(self, k):
        if k != 1 or type(k) is not int:
            raise DomainError(f"layer {format_layer(k)} is not in the trivial flavor {{1}}")
        return 1

    def add(self, k, l):
        return 1

    def mul(self, k, l):
        return 1

    def is_ghost_sort(self, m, ell):
        return True


class SupertropicalSorts(SortFlavor):
    """The two-layer flavor {1, inf}: 1 + 1 = inf, and inf absorbs both operations."""

    name = "super"

    def check(self, k):
        if not (k == INF or (k == 1 and type(k) is int)):
            raise DomainError(f"layer {format_layer(k)} is not in the supertropical flavor {{1, inf}}")
        return k

    def add(self, k, l):
        return INF

    def mul(self, k, l):
        return INF if (k == INF or l == INF) else 1

    def is_ghost_sort(self, m, ell):
        # ell + k = inf for every k in {1, inf}, whichever ell.
        return m == INF


class CountingSorts(SortFlavor):
    """Positive integers with an absorbing inf; ordinary + and *.

    Layers literally count tied dominant terms, which is what makes this
    the most informative flavor for diagnostics.
    """

    name = "nat"

    def check(self, k):
        if k == INF or (type(k) is int and k >= 1):
            return k
        raise DomainError(f"layer {k!r} is not a positive integer or inf")

    def add(self, k, l):
        return k + l

    def mul(self, k, l):
        return k * l

    def is_ghost_sort(self, m, ell):
        if ell == INF:
            return m == INF  # inf = inf + k for any k
        return m > ell


TRIVIAL = TrivialSorts()
SUPERTROPICAL = SupertropicalSorts()
COUNTING = CountingSorts()

SORT_FLAVORS = {"trivial": TRIVIAL, "super": SUPERTROPICAL, "nat": COUNTING}


# ---------------------------------------------------------------------------
# Value flavors


class ValueFlavor:
    """Domain of scalar values (exponents in log-notation): exact rationals only,
    never floats, bools or strings."""

    name = "?"

    #: ``check(v)`` returns ``v`` if it belongs to this flavor, else raises DomainError.
    check = staticmethod(exact)

    def completion(self) -> "ValueFlavor":
        """The group completion, hosting results of division by units."""
        return self

    def __repr__(self):
        return f"<values {self.name}>"


class RationalValues(ValueFlavor):
    name = "rational"


class IntegerValues(ValueFlavor):
    name = "integer"

    def check(self, v):
        if super().check(v).denominator != 1:
            raise DomainError(f"value {v} is not an integer")
        return v


class NaturalValues(IntegerValues):
    name = "natural"

    def check(self, v):
        super().check(v)
        if v < 0:
            raise DomainError(f"value {v} is negative; the natural flavor has no inverses")
        return v

    def completion(self):
        return INTEGERS


RATIONALS = RationalValues()
INTEGERS = IntegerValues()
NATURALS = NaturalValues()

VALUE_FLAVORS = {"rational": RATIONALS, "integer": INTEGERS, "natural": NATURALS}


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of plain records with a dataclass's methods, compiled at a class's first use.

    The fields (``__match_args__``) are the names annotated in the class body, in
    order; a class attribute is a field's default.  Methods the body does not
    define: ``__init__`` by position or keyword, then ``__post_init__()`` if there
    is one; ``__eq__`` of the field tuples of two instances of one class;
    ``__repr__`` as ``Name(field=value, ...)``.  ``frozen=True`` hashes the field
    tuple and refuses assignment and deletion; other records are unhashable.  A
    subclass that annotates nothing keeps its base's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__annotations__:
            cls.__match_args__ = tuple(cls.__annotations__)
            if frozen:
                cls.__setattr__ = cls.__delattr__ = _frozen
            elif "__hash__" not in vars(cls):
                cls.__hash__ = None

    # Stand-ins for a class's own __init__, __eq__ and __hash__ until its first use compiles them.
    def __init__(self, *args, **kwargs):
        _compiled(type(self)).__init__(self, *args, **kwargs)

    def __eq__(self, other):
        return _compiled(type(self)).__eq__(self, other)

    def __hash__(self):
        return _compiled(type(self)).__hash__(self)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"


def _compiled(cls: type) -> type:
    """``cls`` with the record methods its body does not define, compiled for its fields."""
    names = cls.__match_args__
    ns = {"_set": object.__setattr__,
          **{"_d_" + n: getattr(cls, n) for n in names if hasattr(cls, n)}}
    params = ", ".join(f"{n}=_d_{n}" if "_d_" + n in ns else n for n in names)
    fields = "".join(f"self.{n}," for n in names)
    code = {
        "__init__": f"def __init__(self, {params}):" + "".join(
            f"\n _set(self, {n!r}, {n})" for n in names)
            + ("\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""),
        "__eq__": f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n  return "
                  f"({fields}) == ({fields.replace('self.', 'other.')})\n return NotImplemented",
        "__hash__": f"def __hash__(self):\n return hash(({fields}))",
    }
    code = {name: text for name, text in code.items() if name not in vars(cls)}
    exec("\n".join(code.values()), ns)
    for name in code:
        setattr(cls, name, ns[name])
    return cls


def _frozen(record, name, *value):
    """``__setattr__`` and ``__delattr__`` of a frozen record."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# ---------------------------------------------------------------------------
# Scalars and the semiring view


class LayeredScalar(Record, frozen=True):
    """An immutable (layer, value) pair.  All operations live on LayeredSemiring."""

    layer: Layer
    value: Fraction

    def __str__(self):
        if self.layer == 1:
            return str(self.value)
        return f"({format_layer(self.layer)}|{self.value})"


class LayeredSemiring:
    """Operations on layered scalars for a fixed pair of flavors.

    ``descending=False`` is the usual max-plus orientation: addition keeps
    the larger value.  The dual view (``dual()``) keeps the smaller one;
    dualizing twice restores the original operation tables.
    """

    def __init__(self, sorts: SortFlavor = COUNTING, values: ValueFlavor = RATIONALS,
                 descending: bool = False):
        self.sorts = sorts
        self.values = values
        self.descending = descending

    def __eq__(self, other):
        return (isinstance(other, LayeredSemiring)
                and self.sorts is other.sorts
                and self.values is other.values
                and self.descending == other.descending)

    def __hash__(self):
        return hash((id(self.sorts), id(self.values), self.descending))

    def __repr__(self):
        tail = ", dual" if self.descending else ""
        return f"LayeredSemiring({self.sorts.name}, {self.values.name}{tail})"

    # -- construction ------------------------------------------------------

    def scalar(self, value, layer: Layer = 1) -> LayeredScalar:
        return LayeredScalar(self.sorts.check(layer), Fraction(self.values.check(value)))

    def check(self, x: LayeredScalar) -> LayeredScalar:
        if not isinstance(x, LayeredScalar):
            raise DomainError(f"expected a layered scalar, got {x!r}")
        self.sorts.check(x.layer)
        self.values.check(x.value)
        return x

    def one(self) -> LayeredScalar:
        """The multiplicative unit: layer 1, value 0."""
        return LayeredScalar(1, Fraction(0))

    def e(self, layer: Layer) -> LayeredScalar:
        """The layer unit (layer, 0); multiplying by it raises layers."""
        return LayeredScalar(self.sorts.check(layer), Fraction(0))

    # -- order -------------------------------------------------------------

    def nu_compare(self, x: LayeredScalar, y: LayeredScalar) -> int:
        """Compare values only (negative / 0 / positive); layers are ignored."""
        raw = (x.value > y.value) - (x.value < y.value)
        return -raw if self.descending else raw

    def nu_equivalent(self, x: LayeredScalar, y: LayeredScalar) -> bool:
        return x.value == y.value

    def le(self, x: LayeredScalar, y: LayeredScalar) -> bool:
        """The order induced by addition: x <= y when x + y = y."""
        return self.add(x, y) == y

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: LayeredScalar, y: LayeredScalar) -> LayeredScalar:
        return self._add(self.check(x), self.check(y))

    def _add(self, x: LayeredScalar, y: LayeredScalar) -> LayeredScalar:
        """``add`` on scalars known to be valid."""
        c = self.nu_compare(x, y)
        if c > 0:
            return x
        if c < 0:
            return y
        return LayeredScalar(self.sorts.add(x.layer, y.layer), x.value)

    def mul(self, x: LayeredScalar, y: LayeredScalar) -> LayeredScalar:
        self.check(x)
        self.check(y)
        return LayeredScalar(self.sorts.mul(x.layer, y.layer), x.value + y.value)

    def pow(self, x: LayeredScalar, m: int) -> LayeredScalar:
        self.check(x)
        if type(m) is not int:
            raise DomainError(f"exponent {m!r} is not an integer")
        return LayeredScalar(self.sorts.pow(x.layer, m), x.value * m)

    def sum(self, xs: Iterable[LayeredScalar]) -> LayeredScalar:
        total = None
        for x in xs:
            total = x if total is None else self.add(total, x)
        if total is None:
            raise DomainError("empty sum; the semiring has no zero element")
        return total

    # -- layer structure -----------------------------------------------------

    def sort(self, x: LayeredScalar) -> Layer:
        return x.layer

    def transition(self, x: LayeredScalar, m: Layer) -> LayeredScalar:
        """Raise x to layer m, keeping its value; only upward moves exist."""
        self.check(x)
        m = self.sorts.check(m)
        if not m >= x.layer:
            raise DomainError(
                f"cannot move layer {format_layer(x.layer)} down to {format_layer(m)}; "
                "transition maps only raise layers")
        return LayeredScalar(m, x.value)

    def is_ghost_over(self, x: LayeredScalar, ell: Layer) -> bool:
        """Whether the sort of x has the form ell + k (a surplus over ell)."""
        self.check(x)
        return self.sorts.is_ghost_sort(x.layer, self.sorts.check(ell))

    def surpasses(self, x: LayeredScalar, y: LayeredScalar) -> bool:
        """The relation tolerating ghost excess: x equals y up to a ghost of y's sort."""
        self.check(x)
        self.check(y)
        if x == y:
            return True
        return self.nu_compare(x, y) >= 0 and self.sorts.is_ghost_sort(x.layer, y.layer)

    # -- fractions -----------------------------------------------------------

    def localize(self, a: LayeredScalar, u: LayeredScalar) -> LayeredScalar:
        """The fraction a/u for a tangible denominator u; keeps the sort of a.

        Values land in the group completion of the value flavor (natural
        inputs can yield negative integers); see ``localized()``.
        """
        self.check(a)
        self.check(u)
        if u.layer != 1:
            raise DomainError("denominators must be tangible (layer 1)")
        return LayeredScalar(a.layer, a.value - u.value)

    def localized(self) -> "LayeredSemiring":
        """The semiring hosting localization results (completed value flavor)."""
        return LayeredSemiring(self.sorts, self.values.completion(), self.descending)

    # -- duality ---------------------------------------------------------------

    def dual(self) -> "LayeredSemiring":
        """The view with the opposite selection in addition (min instead of max)."""
        return LayeredSemiring(self.sorts, self.values, not self.descending)


def semiring(sorts: str = "nat", values: str = "rational") -> LayeredSemiring:
    """Build a semiring view from flavor names (as used by the CLI)."""
    try:
        sf = SORT_FLAVORS[sorts]
    except KeyError:
        raise DomainError(f"unknown layer flavor {sorts!r}; choose from {sorted(SORT_FLAVORS)}")
    try:
        vf = VALUE_FLAVORS[values]
    except KeyError:
        raise DomainError(f"unknown value flavor {values!r}; choose from {sorted(VALUE_FLAVORS)}")
    return LayeredSemiring(sf, vf)
