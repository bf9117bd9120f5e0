import pytest

from lefcert.generate import GeneratorSpec, SplitMix64, generate_psd
from lefcert.linalg import HermitianMatrix, mat_det


def test_splitmix_reference_values():
    # first outputs for seed 0 of the published SplitMix64 transition
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_integer_range():
    rng = SplitMix64(42)
    for _ in range(200):
        v = rng.integer(-3, 3)
        assert -3 <= v <= 3


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(seed=1, n=0, rank_profile=(1,))
    with pytest.raises(ValueError):
        GeneratorSpec(seed=1, n=2, rank_profile=(3,))
    with pytest.raises(ValueError):
        GeneratorSpec(seed=1, n=2, rank_profile=(1,), entry_bound=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.9), ("seed", True), ("n", 2.0), ("n", True),
    ("entry_bound", 2.5), ("entry_bound", False), ("rank_profile", (1.7,)),
    ("rank_profile", (1, True)), ("rank_profile", ("1",)),
])
def test_spec_refuses_non_int_fields(field, value):
    fields = {"seed": 1, "n": 2, "rank_profile": (1,), "entry_bound": 2, field: value}
    with pytest.raises(TypeError, match="must be an integer"):
        GeneratorSpec(**fields)


@pytest.mark.parametrize("profile", ["12", 5, None, {1: 1}, range(2)])
def test_spec_refuses_a_profile_that_is_not_a_list_or_tuple(profile):
    with pytest.raises(TypeError, match=r"^rank_profile must be a list or tuple, got "):
        GeneratorSpec(seed=1, n=2, rank_profile=profile)


def test_spec_keeps_an_int_profile_as_a_tuple():
    spec = GeneratorSpec(seed=1, n=3, rank_profile=[1, 3, 0])
    assert spec.rank_profile == (1, 3, 0)


def test_zero_rank_gives_zero_matrix():
    (m,) = generate_psd(GeneratorSpec(seed=7, n=3, rank_profile=(0,)))
    assert m == HermitianMatrix.zero(3)


def test_full_rank_is_positive_definite():
    (m,) = generate_psd(GeneratorSpec(seed=7, n=3, rank_profile=(3,)))
    assert m.rank() == 3 and m.is_psd()
    # Sylvester's criterion: every leading principal minor is positive
    minors = [mat_det([row[:k] for row in m.rows[:k]]) for k in range(1, m.n + 1)]
    assert all(not d.im and d.re > 0 for d in minors)


def test_determinism_byte_for_byte():
    from lefcert.serialize import matrix_to_json
    import json

    spec = GeneratorSpec(seed=123456789, n=4, rank_profile=(1, 2, 3, 4, 0))
    a = generate_psd(spec)
    b = generate_psd(spec)
    assert a == b
    ja = json.dumps([matrix_to_json(m) for m in a], sort_keys=True)
    jb = json.dumps([matrix_to_json(m) for m in b], sort_keys=True)
    assert ja == jb


def test_rank_profile_respected_many_draws():
    drawn = 0
    seed = 0
    while drawn < 200:
        seed += 1
        n = 2 + seed % 4
        profile = tuple((seed + k) % (n + 1) for k in range(3))
        mats = generate_psd(GeneratorSpec(seed=seed, n=n, rank_profile=profile))
        for m, r in zip(mats, profile):
            assert m.is_psd() and m.rank() == r
            drawn += 1
