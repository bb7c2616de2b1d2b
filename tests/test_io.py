import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import support
from comrade import (ComradeMatrix, DenseMatrix, MatrixFormatError, ScalarMode,
                     dump_comrade, dump_dense, factorize, load_comrade, load_dense,
                     make_comrade, random_comrade)
from comrade.scalars import format_rational, parse_rational


class TestComradeRoundTrip:
    @pytest.mark.parametrize("C", [
        support.SAMPLE5, support.ZERO_PIVOT4, support.SINGULAR4,
        random_comrade(7, 42),
    ], ids=["sample5", "zero_pivot4", "singular4", "random7"])
    def test_round_trip(self, C, tmp_path):
        path = tmp_path / "m.json"
        dump_comrade(C, path)
        assert load_comrade(path) == C

    def test_float_entries_survive_exactly(self, tmp_path):
        # the binary64 matrix of FLOAT factors is written as the exact
        # rational value of each entry, which load_comrade reads back
        M = factorize(make_comrade(4, (F(1, 3), -1.5, 0.1, 3), (1, F(5, 7), 2),
                                   (2, 3, F(-1, 10)), (1e-300, -1)), ScalarMode.FLOAT).matrix
        path = tmp_path / "m.json"
        dump_comrade(M, path)
        back = load_comrade(path)
        for field in ("beta", "alpha", "gamma", "a"):
            assert all(type(v) is float for v in getattr(M, field))
            assert getattr(back, field) == tuple(map(F, getattr(M, field)))

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        dump_comrade(support.ZERO_PIVOT4, path)
        data = json.loads(path.read_text())
        assert data["n"] == 4
        assert data["beta"] == ["0", "-1", "1", "3"]
        assert data["a"] == ["1", "-1"]


class TestShippedFixtures:
    def test_sample5(self):
        assert load_comrade(support.FIXTURE_DIR / "sample5.json") == support.SAMPLE5

    def test_zero_pivot4(self):
        assert load_comrade(support.FIXTURE_DIR / "zero_pivot4.json") == support.ZERO_PIVOT4

    def test_singular4(self):
        assert load_comrade(support.FIXTURE_DIR / "singular4.json") == support.SINGULAR4


class TestDenseRoundTrip:
    def test_rational(self, tmp_path):
        M = DenseMatrix.from_rows([row for row in support.SAMPLE5_INVERSE])
        path = tmp_path / "d.json"
        dump_dense(M, path)
        assert load_dense(path) == M

    def test_float_entries_survive_exactly(self, tmp_path):
        # floats are serialized as their exact rational value, so the
        # round trip through Fraction recovers the same binary64 number
        M = DenseMatrix.from_rows([(0.1, -2.5, 0.0),
                                   (1 / 3, 123456.789, -0.75),
                                   (2.0, 1e-3, 7.25)])
        path = tmp_path / "d.json"
        dump_dense(M, path)
        back = load_dense(path)
        for r, row in enumerate(M.rows):
            for c, v in enumerate(row):
                assert isinstance(back[r][c], F)
                assert float(back[r][c]) == v


def reference_bytes(data: dict) -> str:
    """The stable byte format: what the JSON encoder writes with indent 2."""
    return json.dumps(data, indent=2) + "\n"


def dense_reference(M: DenseMatrix) -> str:
    return reference_bytes({"n": M.n, "rows": [[format_rational(F(v)) for v in row]
                                               for row in M.rows]})


BIG = F(3**400 - 1, 2**520 + 7)                      # 634 and 521 bits
FLOATS = (0.1, -0.0, 5e-324, 1e308)


class TestByteFormat:
    """Both writers give the bytes of ``json.dumps(data, indent=2) + "\n"``."""

    @pytest.mark.parametrize("rows", [
        [(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        [(F(-1, 3), 0, -7), (BIG, -BIG, F(5, 2)), (F(0), 2**600, F(-2**500 - 1, 3))],
        [FLOATS[:3], FLOATS[1:], (-1e308, 2.5, -5e-324)],
        [(1, F(1, 3), 0.1), (-0.0, F(-7), -4), (BIG, 1e308, True)],
        [],
    ], ids=["n3", "rational-and-big", "float", "mixed", "n0"])
    def test_dense(self, rows, tmp_path):
        M = DenseMatrix.from_rows(rows)
        path = tmp_path / "d.json"
        dump_dense(M, path)
        assert path.read_text() == dense_reference(M)

    @pytest.mark.parametrize("C", [
        support.SAMPLE5, support.ZERO_PIVOT4, random_comrade(9, 3),
        make_comrade(3, (BIG, 0, -1), (F(-5, 7), 2**512), (-BIG, F(1, 2**600)), (F(-1, 3),)),
        ComradeMatrix(4, (0.1, -0.0, True, -7), (5e-324, False, 2**600),
                      (1e308, -1.5, 3), (F(-1, 3), 2.0)),
    ], ids=["sample5", "zero_pivot4", "random9", "big", "float-int-bool"])
    def test_comrade(self, C, tmp_path):
        path = tmp_path / "m.json"
        dump_comrade(C, path)
        fields = ("beta", "alpha", "gamma", "a")
        assert path.read_text() == reference_bytes(
            {"n": C.n, **{f: [format_rational(F(v)) for v in getattr(C, f)] for f in fields}})

    @pytest.mark.parametrize("dump, M", [
        (dump_dense, DenseMatrix.from_rows([(1, 2), (3, float("nan"))])),
        (dump_comrade, ComradeMatrix(3, (1, 2, 3), (1, float("nan")), (1, 1), (1,))),
    ], ids=["dense", "comrade"])
    def test_entry_without_a_rational_value_writes_no_file(self, dump, M, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError):
            dump(M, path)
        assert not path.exists()

    def test_consecutive_calls_share_no_denominator_strings(self, tmp_path):
        # the second matrix repeats one denominator of the first and adds
        # seven big new ones, 21 kB of strings: the call keeps none of
        # them once it returns, and each file is written from its own
        path = tmp_path / "d.json"
        first = DenseMatrix.from_rows([(F(1, 3), F(2, 9), 1), (F(-4, 3), 0, F(1, 9)),
                                       (5, F(7, 3), F(-1, 9))])
        big = [[F(1, 10**3000 + 3 * r + c) for c in range(3)] for r in range(3)]
        second = DenseMatrix.from_rows([(F(1, 9), F(-2, 7), big[0][0]), big[1], big[2]])
        dump_dense(first, path)
        tracemalloc.start()
        try:
            dump_dense(second, path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 3000
        assert path.read_text() == dense_reference(second)
        dump_dense(first, path)
        assert path.read_text() == dense_reference(first)


class TestMalformed:
    def write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def test_unreadable(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="cannot read"):
            load_comrade(tmp_path / "missing.json")

    def test_not_json(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="not valid JSON"):
            load_comrade(self.write(tmp_path, "{nope"))

    def test_json_number_past_the_digit_limit(self, tmp_path):
        # Python's JSON decoder refuses an integer of more than 4,300
        # digits (its default int/str limit) with a plain ValueError
        with pytest.raises(MatrixFormatError, match="not valid JSON"):
            load_comrade(self.write(tmp_path, '{"n": 1%s}' % ("0" * 5000)))

    def test_not_an_object(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="expected a JSON object"):
            load_comrade(self.write(tmp_path, [1, 2, 3]))

    def test_bad_n(self, tmp_path):
        base = {"beta": ["1"] * 3, "alpha": ["0"] * 2, "gamma": ["0"] * 2, "a": ["0"]}
        with pytest.raises(MatrixFormatError, match="'n' must be an integer"):
            load_comrade(self.write(tmp_path, {"n": "3", **base}))
        with pytest.raises(MatrixFormatError, match="n must be >= 3"):
            load_comrade(self.write(tmp_path, {"n": 2, **base}))

    def test_missing_field(self, tmp_path):
        payload = {"n": 3, "beta": ["1", "1", "1"], "alpha": ["0", "0"],
                   "gamma": ["0", "0"]}
        with pytest.raises(MatrixFormatError, match="'a' must be a list"):
            load_comrade(self.write(tmp_path, payload))

    def test_wrong_length(self, tmp_path):
        payload = {"n": 3, "beta": ["1", "1"], "alpha": ["0", "0"],
                   "gamma": ["0", "0"], "a": ["0"]}
        with pytest.raises(MatrixFormatError, match="'beta' must have 3 entries, got 2"):
            load_comrade(self.write(tmp_path, payload))

    @pytest.mark.parametrize("beta", [
        *(pytest.param(["1", e, "1"], id=str(e)) for e in ["1.5", "3/0", "x", 7]),
        # unhashable and non-string entries are refused by type, not by hashing
        pytest.param(["1", [1], "1"], id="list"),
        pytest.param(["1", {"p": 1}, "1"], id="object"),
        pytest.param(["1", None, "1"], id="null"),
        # a repeated bad literal is named at its first index, and a bad
        # literal before a non-string entry is named before it
        pytest.param(["1", "x", "x"], id="repeated"),
        pytest.param(["1", "x", 7], id="literal-before-type"),
    ])
    def test_bad_entry_is_located(self, tmp_path, beta):
        payload = {"n": 3, "beta": beta, "alpha": ["0", "0"],
                   "gamma": ["0", "0"], "a": ["0"]}
        with pytest.raises(MatrixFormatError, match=r"beta\[1\]"):
            load_comrade(self.write(tmp_path, payload))

    def test_dense_requires_square(self, tmp_path):
        payload = {"n": 3, "rows": [["1", "2", "3"], ["4", "5"], ["6", "7", "8"]]}
        with pytest.raises(MatrixFormatError, match=r"rows\[1\] must be a list of 3"):
            load_dense(self.write(tmp_path, payload))

    def test_dense_wrong_row_count(self, tmp_path):
        payload = {"n": 3, "rows": [["1", "2", "3"]]}
        with pytest.raises(MatrixFormatError, match="must be a list of 3 rows"):
            load_dense(self.write(tmp_path, payload))

    def test_dense_bad_entry_located(self, tmp_path):
        payload = {"n": 3, "rows": [["1", "2", "3"], ["4", "4/0", "5"],
                                    ["6", "7", "8"]]}
        with pytest.raises(MatrixFormatError, match=r"rows\[1\]\[1\]"):
            load_dense(self.write(tmp_path, payload))
        payload["rows"][1] = ["4", "x", "x"]
        with pytest.raises(MatrixFormatError, match=r"rows\[1\]\[1\]: invalid rational"):
            load_dense(self.write(tmp_path, payload))


class TestRepeatedLiterals:
    # equal values written differently, each repeated: each string is
    # parsed on its own and its repeats share the result
    POOL = ["1", "+1", " 1", "01", "2/4", "1/2", "-3/9", "-1/3", "0", "-0", "7"]

    def test_comrade_file_loads_as_parsed_entries(self, tmp_path):
        rng = random.Random("repeated-literals")
        n = 12
        fields = {"beta": n, "alpha": n - 1, "gamma": n - 1, "a": n - 2}
        payload = {"n": n, **{f: [rng.choice(self.POOL) for _ in range(k)]
                              for f, k in fields.items()}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        C = load_comrade(path)
        for field in fields:
            assert getattr(C, field) == tuple(map(parse_rational, payload[field]))

    def test_dense_file_loads_as_parsed_entries(self, tmp_path):
        rng = random.Random("repeated-dense-literals")
        rows = [[rng.choice(self.POOL) for _ in range(5)] for _ in range(5)]
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 5, "rows": rows}))
        assert load_dense(path).rows == tuple(tuple(map(parse_rational, row))
                                              for row in rows)


class TestNoDigitLimit:
    """Entries past Python's int/str digit limit (4,300 digits by
    default) are read and written like any other."""

    HUGE = F(-(7**6000), 10**4999 + 3)                     # 5,071 and 5,000 digits

    def test_huge_literal_loads(self, tmp_path):
        literal = "-" + "9" * 5000 + "/" + "1" + "0" * 4999
        payload = {"n": 3, "beta": ["1", literal, literal], "alpha": ["1", "1"],
                   "gamma": ["1", "1"], "a": ["1"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert load_comrade(path).beta[1:] == (F(-(10**5000 - 1), 10**4999),) * 2

    def test_dense_round_trip(self, tmp_path):
        M = DenseMatrix.from_rows([(self.HUGE, 1, F(1, 3)), (0, -self.HUGE, 2),
                                   (0.5, 1 / self.HUGE, self.HUGE + 1)])
        path = tmp_path / "d.json"
        dump_dense(M, path)
        assert load_dense(path) == M
        assert path.read_text() == dense_reference(M)

    def test_comrade_round_trip(self, tmp_path):
        C = make_comrade(3, (self.HUGE, 1, -1), (2, 1 / self.HUGE), (1, 1), (self.HUGE,))
        path = tmp_path / "m.json"
        dump_comrade(C, path)
        assert load_comrade(path) == C
