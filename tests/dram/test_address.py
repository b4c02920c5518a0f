"""Address mapping: interleaving, encode/decode round trips, adjacency."""

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.geometry import DEFAULT_GEOMETRY


@pytest.fixture
def mapper():
    return AddressMapper(DEFAULT_GEOMETRY)


class TestInterleaved:
    def test_consecutive_rows_round_robin_banks(self, mapper):
        banks = [mapper.bank_of(row) for row in range(16)]
        assert banks == list(range(16))

    def test_encode_decode_round_trip(self, mapper):
        for row_id in (0, 1, 12345, DEFAULT_GEOMETRY.rows_per_rank - 1):
            bank = mapper.bank_of(row_id)
            bank_row = mapper.bank_row_of(row_id)
            assert mapper.encode(bank, bank_row) == row_id

    def test_decode_fields(self, mapper):
        addr = mapper.decode(17)
        assert addr.bank == 17 % 16
        assert addr.row == 17 // 16


class TestBlocked:
    def test_blocked_policy_contiguous(self):
        mapper = AddressMapper(DEFAULT_GEOMETRY, policy="blocked")
        rows_per_bank = DEFAULT_GEOMETRY.rows_per_bank
        assert mapper.bank_of(0) == 0
        assert mapper.bank_of(rows_per_bank - 1) == 0
        assert mapper.bank_of(rows_per_bank) == 1

    def test_blocked_round_trip(self):
        mapper = AddressMapper(DEFAULT_GEOMETRY, policy="blocked")
        for row_id in (0, 99, 2**20):
            assert mapper.encode(
                mapper.bank_of(row_id), mapper.bank_row_of(row_id)
            ) == row_id

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(DEFAULT_GEOMETRY, policy="bogus")


class TestNeighbors:
    def test_neighbors_are_same_bank(self, mapper):
        row = mapper.encode(5, 100)
        for neighbor in mapper.neighbors(row):
            assert mapper.bank_of(neighbor) == 5

    def test_distance_one(self, mapper):
        row = mapper.encode(3, 50)
        neighbors = mapper.neighbors(row)
        assert mapper.encode(3, 49) in neighbors
        assert mapper.encode(3, 51) in neighbors
        assert len(neighbors) == 2

    def test_distance_two(self, mapper):
        row = mapper.encode(3, 50)
        neighbors = mapper.neighbors(row, distance=2)
        assert mapper.encode(3, 48) in neighbors
        assert mapper.encode(3, 52) in neighbors

    def test_edge_rows_have_one_neighbor(self, mapper):
        bottom = mapper.encode(0, 0)
        assert len(mapper.neighbors(bottom)) == 1
        top = mapper.encode(0, DEFAULT_GEOMETRY.rows_per_bank - 1)
        assert len(mapper.neighbors(top)) == 1

    def test_invalid_distance(self, mapper):
        with pytest.raises(ValueError):
            mapper.neighbors(0, distance=0)


class TestByteAddresses:
    def test_byte_address_round_trip(self, mapper):
        row = 12345
        address = mapper.byte_address_of_row(row)
        assert mapper.row_of_byte_address(address) == row
        assert mapper.row_of_byte_address(address + 8191) == row
        assert mapper.row_of_byte_address(address + 8192) == row + 1


class TestScrambled:
    """Scrambled decodes its banks as blocked; only the in-bank
    physical order is permuted.  Victim-refresh Table-IV runs depend
    on this decode, so it is pinned here."""

    def test_banks_decode_as_blocked(self):
        scrambled = AddressMapper(DEFAULT_GEOMETRY, policy="scrambled")
        blocked = AddressMapper(DEFAULT_GEOMETRY, policy="blocked")
        rows_per_bank = DEFAULT_GEOMETRY.rows_per_bank
        for row_id in (0, 1, 17, rows_per_bank - 1, rows_per_bank,
                       5 * rows_per_bank + 3):
            assert scrambled.bank_of(row_id) == row_id // rows_per_bank
            assert scrambled.bank_row_of(row_id) == row_id % rows_per_bank
            assert scrambled.decode(row_id) == blocked.decode(row_id)
            assert scrambled.encode(
                scrambled.bank_of(row_id), scrambled.bank_row_of(row_id)
            ) == row_id

    def test_physical_order_differs_from_logical(self):
        mapper = AddressMapper(DEFAULT_GEOMETRY, policy="scrambled")
        half = DEFAULT_GEOMETRY.rows_per_bank // 2
        assert mapper.physical_order_of(2) == 1
        assert mapper.physical_order_of(1) == half
        row = mapper.encode(3, 10)
        assert mapper.neighbors(row) != mapper.assumed_neighbors(row)


class TestBanksOf:
    POLICIES = ("interleaved", "blocked", "scrambled")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_equals_bank_of_elementwise(self, policy):
        mapper = AddressMapper(DEFAULT_GEOMETRY, policy=policy)
        last = DEFAULT_GEOMETRY.rows_per_rank - 1
        rows = np.array(
            [0, 1, 15, 16, 17, 12345, 2**20, last - 1, last]
            + list(range(0, last, 104_729)),
            dtype=np.int64,
        )
        banks = mapper.banks_of(rows)
        assert banks.dtype == np.int64
        assert banks.tolist() == [mapper.bank_of(row) for row in rows.tolist()]
        assert mapper.banks_of(rows[:0]).tolist() == []

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "bad", [-1, DEFAULT_GEOMETRY.rows_per_rank,
                DEFAULT_GEOMETRY.rows_per_rank + 7]
    )
    def test_out_of_rank_raises_like_bank_of(self, policy, bad):
        mapper = AddressMapper(DEFAULT_GEOMETRY, policy=policy)
        with pytest.raises(ValueError) as scalar:
            mapper.bank_of(bad)
        with pytest.raises(ValueError) as vector:
            mapper.banks_of(np.array([3, bad, -5, 9], dtype=np.int64))
        assert str(vector.value) == str(scalar.value)
