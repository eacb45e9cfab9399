"""Golden byte-identity digests for reports, sweeps and splitting fields.

Each section hashes the canonical text of one family of outputs with
sha256.  The expected digests were recorded from the implementation that
scanned every field element for each root search (and, over Q, tried every
candidate +-d/e with d | a0 and e | an); any later change to root finding
must reproduce them byte for byte.  One digest per section, so a
failure names the section that drifted.

Regenerate (only after an intended output change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from alg2d import GF, QQ, Poly
from alg2d.algebra import MSC, all_mscs, msc_from_index
from alg2d.families import ARITY, Regime, all_family_ids, instantiate
from alg2d.poly import splitting_field
from alg2d.report import analyze, render_text
from alg2d.solvers import subalgebra_poly
from alg2d.sweep import FLAG_ROWS, adjudicate_flag, sweep_all


def _plain_and_closed(field):
    for A in all_mscs(field):
        yield analyze(A).dumps()
        yield analyze(A, closed=True).dumps()


def _seeded_closed(field, seed):
    rng = random.Random(seed)
    for _ in range(200):
        yield analyze(msc_from_index(field, rng.randrange(field.order**8)), closed=True).dumps()


def _seeded_plain(field, seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield analyze(msc_from_index(field, rng.randrange(field.order**8))).dumps()


def _seeded_q_mscs(seed, n=100):
    """Seeded MSCs over Q.  Constants are integers of up to
    10^6 in absolute value (log-uniform size), with some n/d and some zero
    entries.  Every other MSC gets b1 chosen so that a small rational r is a
    root of its subalgebra cubic, so the rational root search has roots to
    find, repeated ones included when r is also a root of the rest."""
    rng = random.Random(seed)

    def const():
        u = rng.random()
        if u < 0.15:
            return 0
        v = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 6))
        return Fraction(v, rng.randint(2, 12)) if u < 0.3 else v

    for i in range(n):
        c = [const() for _ in range(8)]
        if i % 2:
            a1, a2, a3, a4, _, b2, b3, b4 = c
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            c[4] = ((a4 * r + a2 + a3 - b4) * r + a1 - b2 - b3) * r
        yield MSC.from_ints(QQ, c[:4], c[4:])


def _text_reports():
    """`render_text` of plain and closed analyses of seeded MSCs over GF(3),
    GF(9) and GF(1009), and of plain analyses over Q.  No input has an
    idempotent family with members to list above GF(3), so the section
    pins the text layout, not the listing of family members."""
    for field, seed, n in ((GF(3), 10, 150), (GF(3, 2), 11, 100), (GF(1009), 12, 40)):
        rng = random.Random(seed)
        for _ in range(n):
            A = msc_from_index(field, rng.randrange(field.order**8))
            yield render_text(analyze(A))
            yield render_text(analyze(A, closed=True))
    for A in _seeded_q_mscs(13, 60):
        yield render_text(analyze(A))


def _seeded_closed_cubic(field, seed, n=20):
    """Closed analyses of seeded MSCs whose subalgebra cubic is irreducible,
    so the subalgebra lines live in GF(q^3); the filter is a plain scan."""
    rng = random.Random(seed)
    els = field.elements()
    done = 0
    while done < n:
        A = msc_from_index(field, rng.randrange(field.order**8))
        f = subalgebra_poly(A)
        if f.degree == 3 and not any(f(x).is_zero for x in els):
            done += 1
            yield analyze(A, closed=True).dumps()


def _cubic_splitting_fields(field):
    for coeffs in itertools.product(field.elements(), repeat=4):
        f = Poly(field, coeffs)
        if f.is_zero:
            continue
        ext, roots = splitting_field(f)
        yield f"{f.text()}|{ext.text()}|{','.join(r.text() for r in roots)}"


def _sweep(F):
    """`sweep_all` and every flag adjudication of F's regime, budget 40, seed 3."""
    for rec in sweep_all(F, budget=40, seed=3):
        yield json.dumps(rec, sort_keys=True, separators=(",", ":"))
    regime = Regime.of_field(F)
    for flag, (_, r, _) in sorted(FLAG_ROWS.items()):
        if r == regime:
            yield json.dumps(adjudicate_flag(flag, F, 40, 3), sort_keys=True)


def _ext_powers():
    """Each large extension's modulus, then a^e at 50 seeded (a, e) with e
    below the order, and a^1000: powers on base-p digits past the log
    tables."""
    for F in (GF(3, 27), GF(5, 36), GF(2, 80)):
        yield f"{F.text()}|{','.join(map(str, F.modulus))}"
        rng = random.Random(F.order)
        for _ in range(50):
            a, e = F._fel(rng.randrange(F.order)), rng.randrange(F.order)
            yield f"{a.text()}|{e}|{(a**e).text()}|{(a**1000).text()}"


def _instantiate_points():
    """`instantiate` on the exhaustive grid of every family over GF(2), GF(3),
    GF(4), GF(5) and GF(7), and at 40 seeded n/d points per family over Q."""
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(7)):
        for fam in all_family_ids(Regime.of_field(field)):
            for params in itertools.product(field.elements(), repeat=ARITY[fam.index]):
                yield f"{fam.name()}|{instantiate(fam, params, field).text()}"
    rng = random.Random(15)
    for fam in all_family_ids(Regime.NE23):
        for _ in range(40):
            params = [
                QQ.el(Fraction(rng.randint(-99, 99), rng.randint(1, 12)))
                for _ in range(ARITY[fam.index])
            ]
            yield f"{fam.name()}|{instantiate(fam, params, QQ).text()}"


SECTIONS = {
    "analyze_gf2": lambda: _plain_and_closed(GF(2)),
    "analyze_gf3": lambda: _plain_and_closed(GF(3)),
    "closed_gf4": lambda: _seeded_closed(GF(2, 2), 1),
    "closed_gf8": lambda: _seeded_closed(GF(2, 3), 2),
    "closed_gf9": lambda: _seeded_closed(GF(3, 2), 3),
    "plain_gf1009": lambda: _seeded_plain(GF(1009), 4, 100),
    "plain_gf625": lambda: _seeded_plain(GF(5, 4), 5, 50),
    # past GF(1009): in-field root searches whose power runs many squarings,
    # and powers in extensions of large degree
    "plain_gf10007": lambda: _seeded_plain(GF(10007), 16, 100),
    "plain_gf2_61": lambda: _seeded_plain(GF(2**61 - 1), 17, 50),
    "powers_ext": _ext_powers,
    "plain_q": lambda: (analyze(A).dumps() for A in _seeded_q_mscs(9)),
    "closed_cubic_gf11": lambda: _seeded_closed_cubic(GF(11), 6),
    "closed_cubic_gf13": lambda: _seeded_closed_cubic(GF(13), 7),
    "closed_cubic_gf17": lambda: _seeded_closed_cubic(GF(17), 8),
    "splitting_gf5": lambda: _cubic_splitting_fields(GF(5)),
    "splitting_gf4": lambda: _cubic_splitting_fields(GF(2, 2)),
    "sweep_gf4": lambda: _sweep(GF(2, 2)),
    "sweep_gf5": lambda: _sweep(GF(5)),
    "sweep_gf9": lambda: _sweep(GF(3, 2)),
    # past the log tables and the small fields: the closed counts on ints of
    # a large p, and on base-p digits of a large extension
    "sweep_gf10007": lambda: _sweep(GF(10007)),
    "sweep_gf2_11": lambda: _sweep(GF(2, 11)),
    "sweep_gf3_7": lambda: _sweep(GF(3, 7)),
    "instantiate": _instantiate_points,
    "text": _text_reports,
}

DIGESTS = {
    "analyze_gf2": "60b8ff9a6ebbe6dd231137a8ba3abdbda763b789d416fcaa4dafd72dd447e984",
    "analyze_gf3": "002f2e3adba63ca8711e8d1b1a5dc019cb57236543def3c65275eb112eb69479",
    "closed_gf4": "ce439998b695a81ed459eb871c247b934a8ddd09e683d361cae674199d885168",
    "closed_gf8": "53b8263bf3c4f45153e35070984d84be220fcb7ba745189f04d87220ae7f7ee8",
    "closed_gf9": "6afb574fbe32efc6d6806173cb96cff07501627a37ccb53153b6ce911134a934",
    "closed_cubic_gf11": "de69c279b055142db778968385f0e78b04bd3275cf2ac50480d60004b9ed456a",
    "closed_cubic_gf13": "84f57f060599b5af7b3904f3c89b26069ecfdbcbf7c49c013eb25ae0fd5858a7",
    "closed_cubic_gf17": "e6feef9e84ae32bc4955a072d40dd7ee5af5e57510cddcea5ee4f66a2c30c858",
    "instantiate": "b40c522448e2083c8e4b1c6daa2d6358b4b0b3a30fa144d97b4c295482fbd22a",
    "plain_gf1009": "a9c67a45a0727497029e19bbef6d4b48e968681227120591f5a888af86211232",
    "plain_gf10007": "8196200c6dee06f7f0c7bc615bcad8f92ee5fd6f9823eddfa98dedffb44a343d",
    "plain_gf2_61": "2596162aa7e195a5c0ec99c186707a3a10a0084f1baa219eafb5c3ec3c17043d",
    "plain_gf625": "6d94c585527c64667bb0f3876fce82396701e3f92f5f7fd4d557f348bc9bc3e6",
    "plain_q": "9d1f15d6d1f5a3053fa044d125a687009f3eaa609ac98dd1ff5d03d451a3fc04",
    "powers_ext": "096ff3d474b93e824cc8d08ef33b61bc17e50d32afe2de2933e9af45d0325828",
    "splitting_gf4": "444e9d1909ffcbc737e1193663d86062ffcc3cf4ad732149124d0c71a8a6e5de",
    "splitting_gf5": "ec3940377079b7a65f5ecf80cd1af4991cf3913b010af8abfa4ea8197281fef3",
    "sweep_gf4": "46fafc4fec9225fc44ece5939b0d9df54f01c30b833a64c7519a0a15367b4f77",
    "sweep_gf5": "2ffa7d293d611ffe03c539a5efdc502caf43b54a6e126c4cf78757325a896659",
    "sweep_gf9": "cf4f73e92bf0d839e1dae2e0fa1f9c4e47aa2eaebf0422ebd7f66d0fa054f4dd",
    "sweep_gf10007": "94295a7246fb29adfd68179bbb019ebd0a43a0d38c2ced0b562a97dc3acf6d75",
    "sweep_gf2_11": "91e3e6ff653dbdd14cac11ce5c2e893767fb210c41dbbc1a1eb20f4ff382c855",
    "sweep_gf3_7": "cc68b279ae90ba30d84c1570b90da4b99dd8917d84b77539d6bf8d2cb467c321",
    "text": "4f35b35f0ece1c7a057c9730cb80282ce2c79245f5f3d6eedf3ddc1db07e5c96",
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_golden_digest(section):
    assert _digest(SECTIONS[section]()) == DIGESTS[section], section


if __name__ == "__main__":
    for name in sorted(SECTIONS):
        print(f'    "{name}": "{_digest(SECTIONS[name]())}",')
