import math

import numpy as np
import pytest

from twostage import RandomStream


class TestRandomStream:
    def test_equal_streams_replay(self):
        a = RandomStream(7, 42).generator.normal(0.0, 1.0, size=16)
        b = RandomStream(7, 42).generator.normal(0.0, 1.0, size=16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = RandomStream(7, 1).generator.normal(0.0, 1.0, size=16)
        b = RandomStream(7, 2).generator.normal(0.0, 1.0, size=16)
        assert not np.array_equal(a, b)

    def test_offset_indexing(self):
        base = RandomStream(3, 10)
        assert base.offset(5).stream_index == 15
        np.testing.assert_array_equal(
            base.offset(5).generator.normal(0.0, 1.0, size=4),
            RandomStream(3, 15).generator.normal(0.0, 1.0, size=4),
        )

    def test_independence_of_adjacent_streams(self):
        # adjacent indices should be uncorrelated for practical purposes
        a = RandomStream(11, 0).generator.normal(0.0, 1.0, size=20000)
        b = RandomStream(11, 1).generator.normal(0.0, 1.0, size=20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            RandomStream(seed, 0)

    def test_generator_is_made_once(self):
        stream = RandomStream(9, 4)
        assert stream.generator is stream.generator

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        # -1 would otherwise wrap to 2**64 - 1 and replay that seed's streams.
        with pytest.raises(ValueError, match="master_seed"):
            RandomStream(seed, 0)

    def test_seeds_at_the_top_of_64_bits_stay_distinct(self):
        seeds = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
        with np.errstate(all="raise"):
            draws = {seed: tuple(RandomStream(seed, 5).generator.normal(0.0, 1.0, size=4)) for seed in seeds}
        assert len(set(draws.values())) == len(seeds)

    @pytest.mark.parametrize("seed, base, ks", [(5, 0, range(62, 67)), (2**63 + 7, 2**64 - 4, range(4))])
    def test_generators_draw_what_each_offset_draws(self, seed, base, ks):
        # A uint32 draw first and last: the last leaves a buffered half-word,
        # which the next k's first must not see.
        def draws(gen):
            first = gen.integers(0, 2**32, size=2, dtype=np.uint32)
            return first, gen.random(5), gen.standard_normal(7), gen.integers(0, 2**32, size=1, dtype=np.uint32)

        stream = RandomStream(seed, base)
        got = [draws(gen) for gen in stream.generators(ks)]
        assert len(got) == len(ks)
        for k, drawn in zip(ks, got):
            for a, b in zip(drawn, draws(stream.offset(k).generator)):
                np.testing.assert_array_equal(a, b)

    def test_generators_refuse_an_index_past_64_bits(self):
        stream = RandomStream(1, 2**64 - 2)
        with pytest.raises(ValueError) as offset_error:
            stream.offset(2)
        gens = stream.generators(range(3))
        next(gens)
        next(gens)
        with pytest.raises(ValueError) as generators_error:
            next(gens)
        assert str(generators_error.value) == str(offset_error.value)

    def test_normal_draw_moments(self):
        draws = RandomStream(123, 0).generator.normal(0.0, 1.0, size=100_000)
        assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)
        # chi-square concentration keeps the sample variance this close
        assert abs(draws.var(ddof=1) - 1.0) < 0.05
