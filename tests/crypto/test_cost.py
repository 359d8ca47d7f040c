"""The virtual-time crypto cost model."""

import pytest

from repro.crypto.cost import aes_cost_ns, sha256_cost_ns, stream_cost_ns


class TestCostModel:
    def test_aes_cost_monotonic(self):
        assert aes_cost_ns(4096) > aes_cost_ns(64) > 0

    def test_sha256_costs_more_per_byte_than_aes(self):
        assert sha256_cost_ns(4096) - sha256_cost_ns(0) > aes_cost_ns(4096) - aes_cost_ns(0)

    @pytest.mark.parametrize("nbytes", [0, 1, 7, 8, 64, 1000, 4096, 65_537])
    def test_stream_charged_exactly_as_aes_ctr(self, nbytes):
        # Priced as AES-CTR: 300 ns set-up plus 0.6 ns/B, truncated.
        assert stream_cost_ns(nbytes) == aes_cost_ns(nbytes) == int(300 + 0.6 * nbytes)
