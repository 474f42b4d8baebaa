"""Workload generators: size distributions and determinism."""

import numpy as np
import pytest

from evenlog.errors import InvalidSpec
from evenlog.workload import (
    WorkloadSpec,
    attribute_sizes,
    generate,
    payload_sizes,
)


class TestSpec:
    def test_parse_forms(self):
        assert WorkloadSpec.parse("uniform", 10).distribution == "uniform"
        assert WorkloadSpec.parse("zipf:1.3", 10).alpha == 1.3
        assert WorkloadSpec.parse("constant:80", 10).constant == 80

    def test_invalid_specs(self):
        for bad in ("zipf:0", "zipf:-1", "zipf:x", "constant:0", "constant:101", "gauss"):
            with pytest.raises(InvalidSpec):
                WorkloadSpec.parse(bad, 10)
        with pytest.raises(InvalidSpec):
            WorkloadSpec("uniform", op_count=0).validate()


class TestSizes:
    def test_constant_80_gives_800_byte_payloads(self):
        sizes = payload_sizes(WorkloadSpec.parse("constant:80", 200))
        assert np.all(sizes == 800)

    def test_constant_20_gives_200_byte_payloads(self):
        assert np.all(payload_sizes(WorkloadSpec.parse("constant:20", 50)) == 200)

    def test_payloads_never_exceed_1000(self):
        for dist in ("uniform", "zipf:1.3", "constant:100"):
            sizes = payload_sizes(WorkloadSpec.parse(dist, 2000, seed=3))
            assert sizes.max() <= 1000 and sizes.min() >= 10

    def test_uniform_mean_is_505(self):
        sizes = payload_sizes(WorkloadSpec.parse("uniform", 10_000, seed=7))
        assert abs(sizes.mean() - 505) < 10

    def test_zipf_frequencies_match_pmf(self):
        for alpha in (1.3, 2.0, 3.0):
            spec = WorkloadSpec.parse(f"zipf:{alpha}", 10_000, seed=11)
            draws = attribute_sizes(spec, np.random.default_rng(spec.seed)).ravel()
            support = np.arange(1, 101)
            pmf = support.astype(float) ** -alpha
            pmf /= pmf.sum()
            n = draws.size
            for s in (1, 2, 5, 10):
                freq = float(np.mean(draws == s))
                se = np.sqrt(pmf[s - 1] * (1 - pmf[s - 1]) / n)
                assert abs(freq - pmf[s - 1]) <= 3 * se + 1e-9, (alpha, s)

    def test_zipf_skews_small(self):
        sizes = payload_sizes(WorkloadSpec.parse("zipf:1.3", 5000, seed=2))
        uniform = payload_sizes(WorkloadSpec.parse("uniform", 5000, seed=2))
        assert sizes.mean() < uniform.mean()


class TestGenerate:
    def test_same_seed_same_stream(self):
        spec = WorkloadSpec.parse("uniform", 100, seed=5)
        assert generate(spec) == generate(spec)

    def test_different_seed_different_stream(self):
        a = generate(WorkloadSpec.parse("uniform", 100, seed=5))
        b = generate(WorkloadSpec.parse("uniform", 100, seed=6))
        assert a != b

    def test_payload_lengths_match_plan(self):
        spec = WorkloadSpec.parse("zipf:2", 300, seed=9)
        assert [len(p) for p in generate(spec)] == payload_sizes(spec).tolist()

