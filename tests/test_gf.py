import hashlib

import numpy as np
import pytest

from cohesionlab.errors import FieldError
from cohesionlab.gf import (
    MAX_ORDER,
    add_table,
    batch_rank,
    emit_tables,
    field_json,
    is_irreducible,
    is_prime_power,
    make_field,
    matrix_rank,
    mul_table,
    primitive_element,
    smallest_irreducible,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


class TestConstruction:
    def test_gf4_modulus(self):
        f = make_field(2, 2)
        assert f.modulus == (1, 1, 1)  # z^2 + z + 1
        assert f.order == 4

    def test_prime_field_modulus_is_z(self):
        f = make_field(5, 1)
        assert f.modulus == (0, 1)

    def test_gf8_modulus(self):
        # smallest irreducible cubic over GF(2), confirmed by trial division
        assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # z^3 + z + 1
        assert is_irreducible((1, 1, 0, 1), 2)
        assert not is_irreducible((1, 0, 0, 1), 2)  # z^3 + 1 = (z+1)(z^2+z+1)

    def test_non_prime_rejected(self):
        with pytest.raises(FieldError, match="not prime"):
            make_field(4, 1)

    def test_order_overflow(self):
        with pytest.raises(FieldError, match="exceeds"):
            make_field(2, 17)

    def test_modulus_override_validated(self):
        with pytest.raises(FieldError, match="reducible"):
            make_field(2, 2, modulus=(0, 0, 1))  # z^2 is reducible

    @pytest.mark.parametrize("modulus", [(1, 0, 2), (1, 0, 0, 1), (1, 1)],
                             ids=["not_monic", "degree_3", "degree_1"])
    def test_modulus_override_must_be_monic_of_degree_m(self, modulus):
        with pytest.raises(FieldError, match="^modulus must be monic of degree 2$"):
            make_field(3, 2, modulus=modulus)

    @pytest.mark.parametrize("p, m, message", [
        (4, 1, "4 is not prime"),
        (2, 17, "field order 131072 exceeds 65536"),
        (2, 18, "field order 2^18 exceeds 65536"),
        (2, 20000, "field order 2^20000 exceeds 65536"),
        (65537, 1, "field order 65537 exceeds 65536"),
        (2**61 - 1, 1, "field order 2305843009213693951 exceeds 65536"),
        (2**61 - 1, 3, "field order 2305843009213693951^3 exceeds 65536"),
        (70000, 1, "field order 70000 exceeds 65536"),
    ])
    def test_refusal_message(self, p, m, message):
        # p above MAX_ORDER is refused without trial division up to sqrt(p),
        # and from m = 18 on the order is given as p^m, not written out
        with pytest.raises(FieldError) as refused:
            make_field(p, m)
        assert str(refused.value) == message


class TestArithmetic:
    def test_gf4_z_times_z(self):
        f = make_field(2, 2)
        assert f.mul(2, 2) == 3  # z * z = z + 1

    def test_gf4_characteristic_two(self):
        f = make_field(2, 2)
        assert f.add(2, 2) == 0

    def test_gf5_product(self):
        f = make_field(5, 1)
        assert f.mul(3, 4) == 2  # 12 mod 5

    def test_inverse_of_zero_rejected(self):
        f = make_field(2, 2)
        with pytest.raises(FieldError, match="zero has no inverse"):
            f.inv(0)

    def test_pow_conventions(self):
        f = make_field(2, 2)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 3) == 0
        assert f.pow(3, 3) == f.mul(3, f.mul(3, 3))

    @pytest.mark.parametrize("p,m", SMALL_ORDERS)
    def test_field_axioms_exhaustive(self, p, m):
        f = make_field(p, m)
        q = f.order
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in range(q):
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("p,m", SMALL_ORDERS)
    def test_frobenius(self, p, m):
        f = make_field(p, m)
        for a in range(f.order):
            for b in range(f.order):
                assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


class TestPrimitive:
    def test_gf4_primitive_is_z(self):
        assert primitive_element(make_field(2, 2)) == 2

    def test_gf2_primitive(self):
        assert primitive_element(make_field(2, 1)) == 1

    def test_gf5_primitive(self):
        assert primitive_element(make_field(5, 1)) == 2

    @pytest.mark.parametrize("p,m", SMALL_ORDERS)
    def test_primitive_order(self, p, m):
        f = make_field(p, m)
        a = f.primitive
        x = 1
        seen = set()
        for j in range(1, f.order - 1):
            x = f.mul(x, a)
            assert x != 1  # no smaller period
            seen.add(x)
        assert f.mul(x, a) == 1  # a^(q-1) = 1
        assert len(seen) == f.order - 2


class TestTables:
    def test_gf4_tables_match_reference(self):
        f = make_field(2, 2)
        assert add_table(f) == [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        assert mul_table(f) == [
            [0, 0, 0, 0],
            [0, 1, 2, 3],
            [0, 2, 3, 1],
            [0, 3, 1, 2],
        ]

    def test_gf2_tables_are_xor_and(self):
        f = make_field(2, 1)
        assert add_table(f) == [[0, 1], [1, 0]]
        assert mul_table(f) == [[0, 0], [0, 1]]

    def test_gf3_tables_mod3(self):
        f = make_field(3, 1)
        assert add_table(f) == [[(a + b) % 3 for b in range(3)] for a in range(3)]
        assert mul_table(f) == [[(a * b) % 3 for b in range(3)] for a in range(3)]

    def test_emit_limit(self):
        f = make_field(2, 7)
        with pytest.raises(FieldError, match="limited"):
            emit_tables(f)

    def test_emit_contains_modulus(self):
        text = emit_tables(make_field(2, 2))
        assert "z^2+z+1" in text

    def test_json_schema(self):
        payload = field_json(make_field(2, 2))
        assert payload == {"p": 2, "m": 2, "modulus": [1, 1, 1], "primitive": 2}


class TestLinearAlgebra:
    def test_rank_gf2(self):
        f = make_field(2, 1)
        assert matrix_rank(f, [[1, 0, 1], [0, 1, 1]]) == 2
        assert matrix_rank(f, [[1, 0, 1], [1, 0, 1]]) == 1
        assert matrix_rank(f, [[0, 0], [0, 0]]) == 0

    def test_rank_gf4(self):
        f = make_field(2, 2)
        assert matrix_rank(f, [[1, 1], [2, 3]]) == 2
        # second row = z * first row, since z*1 = z and z*z = z+1
        assert matrix_rank(f, [[1, 2], [2, 3]]) == 1
        assert matrix_rank(f, [[1, 3], [2, f.mul(2, 3)]]) == 1

    @pytest.mark.parametrize("rank, expected", [
        pytest.param(lambda f: matrix_rank(f, []), 0, id="matrix_rank_no_rows"),
        pytest.param(lambda f: batch_rank(f, np.zeros((0, 2, 3), dtype=np.int64)).tolist(), [],
                     id="batch_rank_empty_batch"),
    ])
    def test_empty_input(self, rank, expected):
        assert rank(make_field(2, 2)) == expected


def test_is_prime_power():
    assert is_prime_power(16) == (2, 4)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


# sha256 over repr((q, modulus, primitive, exp)) for every prime power
# q <= 1024, ascending: a rewrite of the modulus or primitive-element search
# must build the same fields
FIELDS_TO_1024_SHA256 = "4d4dac04f031a1b4951e4d575df2439f610303ce9533e3157e21c7634f21b6c6"


def test_construction_is_pinned_up_to_order_1024():
    limit = 10**4
    sieve = [True] * (limit + 1)
    sieve[:2] = [False, False]
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    powers = {}
    for p in (x for x in range(limit + 1) if sieve[x]):
        m, x = 1, p
        while x <= limit:
            powers[x] = (p, m)
            m, x = m + 1, x * p
    for x in range(-3, limit + 1):
        assert is_prime_power(x) == powers.get(x), x

    digest = hashlib.sha256()
    orders = sorted(q for q in powers if q <= 1024)
    assert len(orders) == 198
    for q in orders:
        f = make_field(*powers[q])
        digest.update(repr((q, f.modulus, f.primitive, f.exp)).encode())
    assert digest.hexdigest() == FIELDS_TO_1024_SHA256


# the same digest over every non-prime prime power q in (1024, MAX_ORDER]
# and the prime 65521, computed when each primitive-element candidate's
# powers were walked through generic polynomial products (26.8 s then)
FIELDS_ABOVE_1024_SHA256 = "ee42a4285220816c82e2936b1ecd069b84d03daf2f82e7f4d7f2ffa8291cdd03"


def test_construction_is_pinned_above_order_1024():
    fields = sorted(
        [(p**m, p, m) for p in range(2, 257) if is_prime_power(p) == (p, 1)
         for m in range(2, 17) if 1024 < p**m <= MAX_ORDER]
        + [(65521, 65521, 1)]
    )
    assert len(fields) == 68
    digest = hashlib.sha256()
    for q, p, m in fields:
        f = make_field(p, m)
        digest.update(repr((q, f.modulus, f.primitive, f.exp)).encode())
    assert digest.hexdigest() == FIELDS_ABOVE_1024_SHA256
