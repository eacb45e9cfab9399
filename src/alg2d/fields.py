"""Exact field arithmetic: prime fields GF(p), extensions GF(p^k), and the rationals.

Extension fields carry an explicit monic irreducible modulus over the prime
field (constant term first).  When no modulus is given, the lexicographically
smallest irreducible polynomial of the requested degree is chosen, so field
construction is reproducible.  An element's raw value is its canonical form:
over GF(p^k) its enumeration index, the int sum c_i * p^i of its residue
coefficients c_i in [0, p) (for GF(p) the residue itself), and over Q one
reduced Fraction.  Modulus selection (Ben-Or's irreducibility test) runs on
`poly`'s raw polynomial helpers over GF(p).

Arithmetic over GF(p^k), k > 1, has three regimes by the order q:

- q <= `_TABLE_MAX_ORDER` = 16: a kernel, one interned element object per
  field element and operation tables filled from the raw `_add`/`_sub`/
  `_mul`/`_inv` on first use, so arithmetic there is one lookup.  `GF`
  returns one object per field, so elements of fields built through it take
  the kernel's fast path, which tests the field by identity.  Its sums and
  products are computed once, into q x q int tables of indices (`raw_add`,
  `raw_mul`) that its element tables are read from.  GF(p) for p <= 13 has
  a kernel too.
- q <= `_LOG_TABLE_MAX_ORDER` = 1024: the raw operations read Zech logarithm
  tables of O(q) entries, built on the field's first operation.
- above that, the raw operations decode the base-p digits, add them without
  carries or multiply them as `poly`'s raw helpers over GF(p) do (the
  convolution `_convolve` and the fold `_fold` by the modulus, which Ben-Or's
  test also runs on), and encode again; inversion runs extended Euclid on
  those helpers, and a power runs `poly._rpow`.

`Field.raw_ops` gives sums and products on raw values, read as
table[a][b]: the kernel's int tables, or else row adaptors over the raw
operations, so no table of q^2 entries is built past the kernel bound.

Fields and elements are immutable; the only mutable state is a set of
caches (construction, embeddings, log tables, small-field kernels), all of
which are safe under CPython's locking or are append-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache


class FieldError(Exception):
    """Base class for field construction and arithmetic errors."""


class NonPrimeCharacteristic(FieldError):
    pass


class UnsupportedRationalExtension(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class IncompatibleFields(FieldError):
    pass


class InfiniteField(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class ParseError(FieldError):
    pass


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality below PRIME_LIMIT; any n with a factor among
    the bases is decided at every size, any other n >= PRIME_LIMIT raises."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= PRIME_LIMIT:
        raise FieldError(f"primality is only decided below {PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Modulus selection.  It and the arithmetic of GF(p^k) outside the log tables
# run on `poly`'s raw helpers over GF(p), whose raw values are the residues,
# constant first; `poly` imports this module, which binds the helpers last.

def _is_irreducible(m: list[int], p: int) -> bool:
    """Ben-Or's test (1981) for a monic m of degree k over GF(p):
    gcd(m, x^(p^i) - x) = 1 for every i <= k/2, with x^(p^i) mod m taken as
    the p-th power of x^(p^(i-1)) mod m."""
    k = len(m) - 1
    if k < 2:  # x itself is only reduced mod m from degree 2 on
        return k == 1
    P = GF(p)
    x = t = [0, 1]
    # a reducible m has a factor of degree i <= k/2, which divides x^(p^i) - x
    for _ in range(k // 2):
        t = _rpow(P, t, p, m)
        if len(_rgcd(P, m, _rsub(P, t, x))) != 1:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    The lower coefficients (c0, ..., c_{k-1}) are read off a counter in lex
    order, c0 most significant, starting at c0 = 1 (c0 = 0 means x divides)."""
    for idx in range(p ** (k - 1), p**k):
        lower = []
        for _ in range(k):
            idx, c = divmod(idx, p)
            lower.append(c)
        m = lower[::-1] + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------

# Extensions up to the first order compute through log tables (O(q) entries
# each); fields up to the second also get a `_Kernel`.
_LOG_TABLE_MAX_ORDER = 1024
_TABLE_MAX_ORDER = 16


class Field:
    """An exact field: GF(p), GF(p^k) with explicit modulus, or Q (p=0, k=1)."""

    __slots__ = (
        "p",
        "k",
        "modulus",
        "order",
        "_hash",
        "_exp",
        "_log",
        "_zech",
        "_half",
        "_kernel",
    )

    # `benchmarks/tracer.py` sums every field's memo entries through
    # `_mul_cache`, `_inv_cache` and `_elements`.  No field memoises products
    # or element lists; the log tables, once built, are what its inverses read.
    _mul_cache = _elements = None

    @property
    def _inv_cache(self):
        return self._log if isinstance(self._log, list) else ()

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if p == 0:
            if k != 1:
                raise UnsupportedRationalExtension("no extensions of Q are supported")
            if modulus is not None:
                raise UnsupportedRationalExtension("Q takes no modulus")
        else:
            if not is_prime(p):
                raise NonPrimeCharacteristic(f"{p} is not prime")
            if k < 1:
                raise FieldError("degree must be positive")
            if modulus is not None:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise FieldError("modulus must be monic of degree k")
                if not _is_irreducible(list(modulus), p):
                    raise FieldError("modulus is reducible")
            if k == 1:
                modulus = None  # every monic x - a presents the same GF(p)
            elif modulus is None:
                modulus = _smallest_irreducible(p, k)
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k if p else None
        self._hash = hash((p, k, modulus))
        # the log tables are built by the first arithmetic; True marks an
        # extension past `_LOG_TABLE_MAX_ORDER`, which has none
        self._log = True if k > 1 and self.order > _LOG_TABLE_MAX_ORDER else None
        self._kernel = _Kernel(self) if p and self.order <= _TABLE_MAX_ORDER else None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Field({self.text()})"

    def text(self) -> str:
        """Canonical text form: gf(p) | gf(p,k;c0,...,ck) | q."""
        if self.p == 0:
            return "q"
        if self.k == 1:
            return f"gf({self.p})"
        mod = ",".join(str(c) for c in self.modulus)
        return f"gf({self.p},{self.k};{mod})"

    @property
    def is_finite(self) -> bool:
        return self.p != 0

    # -- element construction ----------------------------------------------

    def el(self, value) -> "Fel":
        """Coerce an int, Fraction, or coefficient sequence into this field."""
        if self.p == 0:
            if isinstance(value, (int, Fraction)):
                return Fel(self, Fraction(value))
            raise FieldError(f"cannot coerce {value!r} into Q")
        if isinstance(value, int):
            return self._fel(value % self.p)  # a constant's index is itself
        if isinstance(value, (tuple, list)):
            if len(value) > self.k:
                raise FieldError("too many coefficients")
            return self._fel(self._index([int(c) for c in value]))
        raise FieldError(f"cannot coerce {value!r} into {self.text()}")

    def raw_ops(self) -> tuple:
        """(add, mul) on raw values, each read as table[a][b]: the kernel's
        int tables, or else row adaptors over `_add` and `_mul` that compute
        each entry when it is read.  A row taken once can be read many
        times."""
        K = self._kernel
        if K is not None:
            return K.raw_add, K.raw_mul
        return _Row(_Row, self._add), _Row(_Row, self._mul)

    def _fel(self, raw) -> "Fel":
        """The element with this raw value; interned when the field has a
        kernel."""
        if self._kernel is None:
            return Fel(self, raw)
        return self._kernel.els[raw]

    @property
    def zero(self) -> "Fel":
        return self._fel(0) if self.p else Fel(self, Fraction(0))

    @property
    def one(self) -> "Fel":
        return self._fel(1) if self.p else Fel(self, Fraction(1))

    def from_index(self, idx: int) -> "Fel":
        """Element number idx in the canonical enumeration order."""
        if self.p == 0:
            raise InfiniteField("Q is not enumerable")
        return self._fel(idx % self.order)

    def index_digits(self, idx: int, n: int) -> tuple:
        """The n elements whose indices are the base-q digits of idx, least
        significant first."""
        out = []
        for _ in range(n):
            idx, d = divmod(idx, self.order)
            out.append(self.from_index(d))
        return tuple(out)

    def _digits(self, idx: int) -> list[int]:
        """The k base-p digits of an index: its residue coefficients, constant
        first."""
        coeffs = []
        for _ in range(self.k):
            idx, c = divmod(idx, self.p)
            coeffs.append(c)
        return coeffs

    def _index(self, coeffs) -> int:
        """The index of the element with these integer coefficients, each
        read mod p."""
        p, idx = self.p, 0
        for c in reversed(coeffs):
            idx = idx * p + c % p
        return idx

    def elements(self):
        """All field elements in canonical order (finite fields only)."""
        if self.p == 0:
            raise InfiniteField("Q is not enumerable")
        return [self.from_index(i) for i in range(self.order)]

    # -- raw arithmetic ------------------------------------------------------
    # For k = 1 a raw value is a residue mod p (a Fraction over Q), so each
    # operation is one integer operation.  An extension of order at most
    # `_LOG_TABLE_MAX_ORDER` reads its log tables, built by its first
    # operation; a larger one, whose `_log` is True, combines base-p digits:
    # sums and differences without carries, and products by convolving,
    # folding by the modulus and encoding again.

    def _tables(self):
        """The log table, after building the others on first use, for an
        extension of order at most `_LOG_TABLE_MAX_ORDER`.

        With g the smallest-index primitive element and n = q - 1, `_exp[i]`
        is the index of g^i for 0 <= i < 2n, `_log` inverts it (None at 0),
        `_zech[i]` is log(1 + g^i) for -n <= i < n (None where 1 + g^i = 0)
        and `_half` is log(-1), so no sum or difference of logs the
        operations form needs a reduction mod n.  `_log` is set last: a
        thread that still reads None builds the same tables again."""
        q = self.order
        p, n = self.p, q - 1
        g = self._generator()
        exp, x = [], [1]
        for _ in range(n):  # step on digit lists: one encoding per entry
            exp.append(self._index(x))
            x = _convolve(g, x)
            _fold(x, self.modulus, p)
            x = [c % p for c in x]
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        # adding 1 to an index changes only its constant digit; -1 has index
        # p - 1, and 1 + (-1) = 0 has no log
        zech = [log[a + 1 if a % p != p - 1 else a + 1 - p] for a in exp]
        self._exp, self._zech, self._half = exp * 2, zech, log[p - 1]
        self._log = log
        return log

    def _generator(self) -> list[int]:
        """Digits of the smallest-index primitive element g: the first with
        g^(n/r) != 1 for each prime r dividing n = q - 1, tried r = 2 first.
        The search starts past the constants, whose orders divide p - 1 < n."""
        n = self.order - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        P = GF(self.p)
        for idx in range(self.p, self.order):
            g = self._digits(idx)
            if all(_rpow(P, g, n // r, self.modulus) != [1] for r in primes):
                return g

    def _add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p if self.p else a + b
        log = self._log or self._tables()
        if log is True:
            return self._digitwise(a, b, 1)
        if not a or not b:
            return a or b
        # a + b = a * (1 + b/a)
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p if self.p else a - b
        log = self._log or self._tables()
        if log is True:
            return self._digitwise(a, b, -1)
        # a - b = a + (-b), where -b = g^(log(b) + log(-1))
        return self._add(a, self._exp[log[b] + self._half]) if b else a

    def _neg(self, a):
        return self._sub(0, a)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        p, out, place = self.p, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * place
            place *= p
        return out

    def _mul(self, a, b):
        if self.k == 1:
            return a * b % self.p if self.p else a * b
        log = self._log or self._tables()
        if log is True:
            r = _convolve(self._digits(a), self._digits(b))
            _fold(r, self.modulus, self.p)
            return self._index(r)
        return self._exp[log[a] + log[b]] if a and b else 0

    def _pow(self, a, e: int):
        """a^e for e >= 0 (0^0 = 1): `pow` over GF(p) and Q, a product of
        logs on the log tables, and `poly._rpow` on base-p digits above."""
        if self.k == 1:
            return pow(a, e, self.p) if self.p else a**e
        log = self._log or self._tables()
        if not (a and e):  # `_rpow` takes e >= 1, and 0 has no log
            return int(not e)
        if log is True:
            return self._index(_rpow(GF(self.p), self._digits(a), e, self.modulus))
        return self._exp[log[a] * e % (self.order - 1)]

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        p = self.p
        if self.k == 1:
            return pow(a, -1, p) if p else Fraction(1, a)  # a may be an int
        log = self._log or self._tables()
        if log is not True:
            return self._exp[self.order - 1 - log[a]]
        # extended Euclid over GF(p)[x] against the modulus, keeping
        # s_i * a = r_i mod the modulus with every divisor r_i made monic;
        # the last nonzero remainder is then 1 and its s_i the inverse
        P = GF(p)
        r0, r1 = list(self.modulus), self._digits(a)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while r1:
            lead_inv = [pow(r1[-1], -1, p)]
            r1, s1 = _rmul(P, r1, lead_inv), _rmul(P, s1, lead_inv)
            q, r = _rdivmod(P, r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _rsub(P, s0, _rmul(P, q, s1))
        return self._index(s0)


def _convolve(x: list, y: list, zero=0) -> list:
    """The coefficients of the product of the nonempty x and y, constant
    first, each summed with Python's operators and not reduced; every sum
    starts at `zero`.  A sparse x costs least."""
    out = [zero] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        if c:
            for j, d in enumerate(y, i):
                out[j] += c * d
    return out


def _fold(r: list, m, p: int) -> list:
    """Divide r, constant first, by the monic m in place, and return the
    quotient.  r keeps the remainder's len(m) - 1 low coefficients, not
    reduced; each quotient coefficient is reduced once mod p, or not at all
    over Q (p = 0).  Zero terms of m cost a test each, so a sparse modulus
    folds fast."""
    d = len(m) - 1
    low = m[:d]
    q = [0] * (len(r) - d)  # empty when r is shorter than m
    for s in range(len(q) - 1, -1, -1):
        c = r.pop() % p if p else r.pop()
        q[s] = c
        if c:
            for j, x in enumerate(low, s):
                if x:
                    r[j] -= c * x
    return q


class _Kernel:
    """Interned elements and operation tables of a field of order at most
    `_TABLE_MAX_ORDER`.  Each part is built on first use; a binary table is
    indexed [left index][right index], and the inverse of zero is None.
    `raw_add` and `raw_mul` hold indices, and the element tables are read
    off them."""

    def __init__(self, field: Field):
        self.field = field

    @cached_property
    def els(self) -> list:
        """One element object per field element, in index order."""
        return [_SmallFel(self.field, i) for i in range(self.field.order)]

    def _raw_table(self, op) -> list:
        q = range(self.field.order)
        return [[op(a, b) for b in q] for a in q]

    def _el_table(self, raw: list) -> list:
        els = self.els
        return [[els[c] for c in row] for row in raw]

    @cached_property
    def raw_add(self) -> list:
        return self._raw_table(self.field._add)

    @cached_property
    def raw_mul(self) -> list:
        return self._raw_table(self.field._mul)

    @cached_property
    def add(self) -> list:
        return self._el_table(self.raw_add)

    @cached_property
    def sub(self) -> list:
        return self._el_table(self._raw_table(self.field._sub))

    @cached_property
    def mul(self) -> list:
        return self._el_table(self.raw_mul)

    @cached_property
    def neg(self) -> list:
        return [self.els[self.field._neg(a.raw)] for a in self.els]

    @cached_property
    def inv(self) -> list:
        return [None] + [self.els[self.field._inv(a.raw)] for a in self.els[1:]]


class _Row:
    """`_Row(op, a)[b]` is op(a, b) for raw a and b, computed when it is read;
    so `_Row(_Row, op)[a]` is the row of a, and a table of op."""

    __slots__ = ("op", "a")

    def __init__(self, op, a):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        return self.op(self.a, b)


_FIELDS: dict = {}


def GF(p: int, k: int = 1, modulus: tuple[int, ...] | None = None) -> Field:
    """GF(p^k), cached by (p, k, modulus) however passed; modulus defaults to
    the lex-smallest irreducible.  Every spelling of one field is one object."""
    return _field(p, k, modulus)


@lru_cache(maxsize=None)
def _field(p: int, k: int, modulus: tuple[int, ...] | None) -> Field:
    F = Field(p, k, modulus)
    return _FIELDS.setdefault(F, F)


GF.cache_info = _field.cache_info
QQ = GF(0)


class Fel:
    """A field element in canonical form; immutable and hashable.  `raw` is
    the index over a finite field and a Fraction over Q."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        self.field = field
        self.raw = raw

    def _check(self, other) -> "Fel":
        if not isinstance(other, Fel):
            raise TypeError(f"expected field element, got {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(
                f"elements of {self.field.text()} and {other.field.text()}"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return Fel(self.field, self.field._add(self.raw, other.raw))

    def __sub__(self, other):
        other = self._check(other)
        return Fel(self.field, self.field._sub(self.raw, other.raw))

    def __mul__(self, other):
        other = self._check(other)
        return Fel(self.field, self.field._mul(self.raw, other.raw))

    def __truediv__(self, other):
        other = self._check(other)
        return Fel(self.field, self.field._mul(self.raw, self.field._inv(other.raw)))

    def __neg__(self):
        return Fel(self.field, self.field._neg(self.raw))

    def inv(self) -> "Fel":
        """Multiplicative inverse; raises DivisionByZero on zero."""
        return Fel(self.field, self.field._inv(self.raw))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return self.field._fel(self.field._pow(self.raw, e))

    def __eq__(self, other):
        return (
            isinstance(other, Fel)
            and self.raw == other.raw
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash(self.raw)

    @property
    def is_zero(self) -> bool:
        return not self.raw

    def index(self) -> int:
        """Position in the canonical enumeration (finite fields)."""
        if self.field.p == 0:
            raise InfiniteField("Q elements have no enumeration index")
        return self.raw

    def sort_key(self):
        return self.raw

    def __repr__(self):
        return f"<{self.text()} in {self.field.text()}>"

    def text(self) -> str:
        """Canonical element text: c0+c1*w+... for extensions, n/d for Q."""
        f = self.field
        if f.k == 1:
            return str(self.raw)
        terms = []
        for i, c in enumerate(f._digits(self.raw)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                power = "w" if i == 1 else f"w^{i}"
                terms.append(power if c == 1 else f"{c}*{power}")
        return "+".join(terms) if terms else "0"


class _SmallFel(Fel):
    """An interned element of a field with a kernel.  Between two such
    elements of one field object, every operation is a table lookup by raw
    value; any other operand takes the generic checks and returns an
    interned result."""

    __slots__ = ()

    def __add__(self, other):
        F = self.field
        if other.__class__ is _SmallFel and other.field is F:
            return F._kernel.add[self.raw][other.raw]
        return F._fel(F._add(self.raw, self._check(other).raw))

    def __sub__(self, other):
        F = self.field
        if other.__class__ is _SmallFel and other.field is F:
            return F._kernel.sub[self.raw][other.raw]
        return F._fel(F._sub(self.raw, self._check(other).raw))

    def __mul__(self, other):
        F = self.field
        if other.__class__ is _SmallFel and other.field is F:
            return F._kernel.mul[self.raw][other.raw]
        return F._fel(F._mul(self.raw, self._check(other).raw))

    def __truediv__(self, other):
        F = self.field
        if other.__class__ is _SmallFel and other.field is F and other.raw:
            K = F._kernel
            return K.mul[self.raw][K.inv[other.raw].raw]
        return F._fel(F._mul(self.raw, F._inv(self._check(other).raw)))

    def __neg__(self):
        return self.field._kernel.neg[self.raw]

    def inv(self) -> "Fel":
        if self.raw:
            return self.field._kernel.inv[self.raw]
        raise DivisionByZero("inverse of zero")


# ---------------------------------------------------------------------------
# Embeddings between compatible finite fields.

@lru_cache(maxsize=None)
def _embedding_images(src: Field, dst: Field) -> tuple[list[int], ...]:
    """Powers 0..k-1 of the chosen image of src's generator inside dst, as
    dst's coefficient lists."""
    if src.p != dst.p:
        raise IncompatibleFields("different characteristic")
    if src.p == 0:
        raise IncompatibleFields("no embeddings over Q")
    if dst.k % src.k != 0:
        raise IncompatibleFields(f"{src.text()} does not embed in {dst.text()}")
    if src.k == 1:
        return (dst._digits(1),)
    # the image of the generator is the lex-smallest root of src's modulus in dst
    roots = RootSearch(Poly.from_ints(dst, src.modulus)).roots
    if not roots:
        raise IncompatibleFields("modulus has no root in the target field")
    images = [dst.one]
    for _ in range(src.k - 1):
        images.append(images[-1] * roots[0])
    return tuple(dst._digits(x.raw) for x in images)


def embed(a: Fel, dst: Field) -> Fel:
    """Image of a under the fixed ring embedding of its field into dst."""
    src = a.field
    if src is dst:
        return a
    if src.k == dst.k and src == dst:  # an equal field object built apart from GF
        return dst._fel(a.raw)
    images = _embedding_images(src, dst)
    if src.k == 1:  # a constant's index is itself in every extension
        return dst._fel(a.raw)
    # sum c_i * image_i on dst's coefficient lists over Z, reduced once mod p
    # by the encoding
    acc = [0] * dst.k
    for c, img in zip(src._digits(a.raw), images):
        if c:
            for i, x in enumerate(img):
                acc[i] += c * x
    return dst._fel(dst._index(acc))


# ---------------------------------------------------------------------------
# Text formats.

def parse_field(text: str) -> Field:
    """Parse gf(p) | gf(p,k) | gf(p,k;c0,...,ck) | q, spaces ignored, every
    number in ASCII decimal digits."""
    s = text.strip().lower().replace(" ", "")
    if s == "q":
        return QQ
    if not (s.startswith("gf(") and s.endswith(")")):
        raise ParseError(f"unrecognised field spec {text!r}")
    body, semi, modpart = s[3:-1].partition(";")
    mod = None
    if semi:
        error = f"bad modulus in {text!r}"
        # a coefficient may carry one leading minus, as an element may
        mod = tuple(
            -_numeral(c[1:], error) if c.startswith("-") else _numeral(c, error)
            for c in modpart.split(",")
        )
    nums = [_numeral(x, f"bad field spec {text!r}") for x in body.split(",")]
    if len(nums) > 2 or (semi and len(nums) == 1):  # a modulus follows the degree
        raise ParseError(f"bad field spec {text!r}")
    p, k = nums if len(nums) == 2 else (nums[0], 1)
    if p == 0:  # GF(0) is Q, which the text format spells q
        raise NonPrimeCharacteristic(f"0 is not prime in {text!r}; write the rationals as q")
    return GF(p, k, mod)


def _numeral(s: str, error: str) -> int:
    """The value of a run of ASCII decimal digits; `int` alone would also read
    signs, underscores, whitespace and non-ASCII digits."""
    if not (s.isascii() and s.isdigit()):
        raise ParseError(error)
    try:
        return int(s)
    except ValueError:  # past int()'s digit limit
        raise ParseError(error)


def parse_el(field: Field, text: str) -> Fel:
    """Parse an element in the canonical text format: `n` or `n/d` over Q,
    terms `c`, `c*w^i` or `w^i` joined by `+` otherwise, every number in
    ASCII decimal digits, and an optional leading minus."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty element")
    # a leading minus negates the rational, or the first term
    neg_first = s.startswith("-")
    if neg_first:
        s = s[1:]
    if field.p == 0:
        error = f"bad rational {text!r}"
        num, slash, den = s.partition("/")
        try:
            x = Fraction(_numeral(num, error), _numeral(den, error) if slash else 1)
        except ZeroDivisionError:
            raise ParseError(error)
        return field.el(-x if neg_first else x)
    coeffs = [0] * field.k
    for t, term in enumerate(s.split("+")):
        if not term:
            raise ParseError(f"bad element {text!r}")
        if "*" in term:
            cpart, wpart = term.split("*", 1)
        elif term.startswith("w"):
            cpart, wpart = "1", term
        else:
            cpart, wpart = term, ""
        c = _numeral(cpart, f"bad coefficient in {text!r}")
        if wpart == "" and "*" not in term:  # `c*` names no power
            i = 0
        elif wpart == "w":
            i = 1
        elif wpart.startswith("w^"):
            i = _numeral(wpart[2:], f"bad power in {text!r}")
        else:
            raise ParseError(f"bad term {term!r} in {text!r}")
        if i >= field.k:
            raise ParseError(f"power w^{i} out of range for {field.text()}")
        if t == 0 and neg_first:
            c = -c
        coeffs[i] = (coeffs[i] + c) % field.p
    return field.el(coeffs)


# `poly` imports the names above from this module, which `alg2d` imports first
from .poly import Poly, RootSearch, _rdivmod, _rgcd, _rmul, _rpow, _rsub  # noqa: E402
