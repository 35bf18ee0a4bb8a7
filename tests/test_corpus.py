import pytest

from kgprep.corpus import FIXED_POOL_ROWS, _Builder


def test_exhausted_key_space_raises():
    gen = _Builder(1000, seed=0)
    heads, tails = gen.compounds[:2], gen.diseases[:2]
    for _ in range(4):  # 2 x 2 pairs, one canonical key each
        head, tail = gen.pick_unused_pair("cd_treats", heads, tails)
        gen.add(head, "cd_treats", tail, "final")
    message = r"^corpus: no free cd_t key left for 2 head x 2 tail ids$"
    with pytest.raises(ValueError, match=message):
        gen.pick_unused_pair("cd_t", heads, tails)  # same TREATMENT keys


def test_pools_grow_only_above_fixed_size():
    fixed = _Builder(FIXED_POOL_ROWS, seed=0)
    grown = _Builder(FIXED_POOL_ROWS + 1, seed=0)
    for attr, size in (("genes", 400), ("compounds", 120), ("diseases", 60)):
        assert len(getattr(fixed, attr)) == size
        assert len(getattr(grown, attr)) == 2 * size
        assert getattr(grown, attr)[:size] == getattr(fixed, attr)
        assert len(set(getattr(grown, attr))) == 2 * size
