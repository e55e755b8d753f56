import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmeter import _floattext, cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
NAMED = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         9999999999999998.0, 1e16, 1e-05, 0.0001, 1e22, 1e23, 9.999999999999999e22,
         1.914094267231728e+18, 0.1, 0.3, 2 / 3]


def oracle(cols) -> bytes:
    """The rows as repr writes them."""
    rows = zip(*[col.tolist() for col in cols])
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def formatted(cols) -> bytes:
    parts = []
    _floattext.write_rows(parts.append, cols)
    return b"".join(parts)


def assert_same(values, negated=True):
    values = np.asarray(values, dtype=np.float64)
    for x in (values, -values) if negated else (values,):
        got, want = formatted([x]).split(b"\n"), oracle([x]).split(b"\n")
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        assert not bad and len(got) == len(want), bad[:5]


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float_is_its_repr(values):
    assert_same(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_same(bits.view(np.float64), negated=False)  # both signs already


def test_every_power_of_two():
    assert_same(np.ldexp(1.0, np.arange(-1074, 1024)))


@pytest.mark.parametrize("value", NAMED)
def test_named_values(value):
    assert_same([value])


def test_boundary_neighbours():
    """Powers of ten, exact integers, short decimals and their neighbouring
    doubles: the places where the digit count or the layout changes."""
    tens = 10.0 ** np.arange(-30, 31)
    near = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
    ints = np.arange(-2000, 2000, dtype=np.float64)
    decimals = np.round(np.random.default_rng(7).uniform(-1e3, 1e3, 20000), 3)
    assert_same(np.concatenate([near, ints, decimals, ints / 8]))


def test_rows_and_columns():
    rng = np.random.default_rng(3)
    cols = [rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, 1000) for _ in range(7)]
    assert formatted(cols) == oracle(cols)


def test_columns_that_are_not_float64_are_their_repr():
    cols = [np.arange(5), np.array([True, False, True, True, False]),
            np.linspace(0.0, 1.0, 5).astype(np.float32), np.linspace(-1.0, 1.0, 5)]
    assert formatted(cols) == oracle(cols)


def test_texts_is_the_repr_list():
    for values in (np.array([0.5, -1e-7, np.nan, 3.0]), np.arange(4), np.zeros(0)):
        assert _floattext.texts(values) == list(map(repr, values.tolist()))


def fixture_bundles():
    return {p.stem: cli.run(cli.load_config(str(p))) for p in sorted(CONFIGS.glob("*.json"))}


def test_chunk_size_does_not_change_the_bytes(monkeypatch):
    """Chunks of the default size and of 7 cells (cut inside rows) give the
    bytes of repr for every fixture table, and so do chunks of 1 cell on
    the first rows (at least two, about 256 cells) of every table."""
    for name, bundle in fixture_bundles().items():
        for table in bundle.tables.values():
            cols = list(table.values())
            want = oracle(cols)
            assert formatted(cols) == want, name
            monkeypatch.setattr(_floattext, "CHUNK_CELLS", 7)
            assert formatted(cols) == want, name
            head = [col[:max(2, 256 // len(cols))] for col in cols]
            monkeypatch.setattr(_floattext, "CHUNK_CELLS", 1)
            assert formatted(head) == oracle(head), name
            monkeypatch.undo()


def test_json_tables_are_the_repr_lists(tmp_path):
    """result.json holds the bytes that the repr of every value gives."""
    for name, bundle in fixture_bundles().items():
        path, = cli.emit(bundle, "json", str(tmp_path / name))
        doc = {
            "metadata": dict(bundle.metadata),
            "tables": {
                table: {col: list(map(repr, vals.tolist())) for col, vals in cols.items()}
                for table, cols in bundle.tables.items()
            },
            "residuals": bundle.residuals,
        }
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert pathlib.Path(path).read_text(encoding="utf-8") == want, name
