"""The production fingerprint kernel against the Figs. 5–6 reference scans.

``FingerprintScheme.key_matrices`` keys only the lengths it is told, length
major and a tile of reads at a time; every key must be the doubling scan's
(`prefix_fingerprints_batch` / `suffix_fingerprints_batch` packed with
``pack_pair``) bit for bit, and the partition files the map phase builds
from it must be the per-batch, per-orientation, per-length record
assemblies of those reference scans.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import AssemblyConfig, MemoryConfig
from repro.core import map_phase
from repro.core.context import RunContext
from repro.core.map_phase import partition_lengths, run_map
from repro.errors import ConfigError
from repro.extmem.records import (AUX_FIELD, KEY_FIELD, VAL_FIELD, kv_dtype,
                                  make_records)
from repro.fingerprint import (FingerprintScheme, prefix_fingerprints_batch,
                               suffix_fingerprints_batch)
from repro.fingerprint.modmath import MODULUS_PRIMES
from repro.fingerprint.scan import ScanWorkspace, tile_rows
from repro.fingerprint.scheme import pack_pair
from repro.seq.alphabet import reverse_complement
from repro.seq.packing import PackedReadStore, pack_codes

from .conftest import batch_device_bytes

ROW_KINDS = ("0", "1", "tile-1", "tile", "tile+1", "2*tile+3")
LENGTH_KINDS = ("overlap", "all", "single", "sparse")


def reference_keys(scheme, codes, lengths):
    """``(prefix, suffix)`` length-major key rows from the doubling scans."""
    read_length = codes.shape[1]
    lengths = np.asarray(lengths)
    prefix, suffix = [], []
    for lane in range(scheme.lanes):
        spec_hi, spec_lo = scheme.hash_specs[2 * lane:2 * lane + 2]
        prefix_hi = prefix_fingerprints_batch(codes, spec_hi)
        prefix_lo = prefix_fingerprints_batch(codes, spec_lo)
        prefix.append(pack_pair(prefix_hi, prefix_lo)[:, lengths - 1].T)
        suffix.append(pack_pair(suffix_fingerprints_batch(codes, spec_hi),
                                suffix_fingerprints_batch(codes, spec_lo)
                                )[:, read_length - lengths].T)
    return prefix, suffix


def _rows(kind: str, scheme, lengths) -> int:
    # The kernel's tile: its key sums or the codes it reads, the larger.
    tile = tile_rows(max(len(scheme.hash_specs) * len(lengths),
                         int(lengths[-1])))
    return {"0": 0, "1": 1, "tile-1": tile - 1, "tile": tile,
            "tile+1": tile + 1, "2*tile+3": 2 * tile + 3}[kind]


def _lengths(kind: str, read_length: int, rng) -> np.ndarray:
    if kind == "overlap":
        return np.arange(int(rng.integers(1, read_length)), read_length)
    if kind == "all":
        return np.arange(1, read_length + 1)
    if kind == "single":
        return rng.integers(1, read_length + 1, 1)
    picked = rng.random(read_length) < 0.3
    picked[rng.integers(read_length)] = True
    return np.nonzero(picked)[0] + 1


def check_kernel(read_length, lanes, seed, row_kind, length_kind, via_out,
                 data_seed):
    rng = np.random.default_rng(data_seed)
    scheme = FingerprintScheme(lanes=lanes, seed=seed)
    lengths = _lengths(length_kind, read_length, rng)
    m = _rows(row_kind, scheme, lengths)
    codes = rng.integers(0, 4, (m, read_length), dtype=np.uint8)
    if via_out:
        # The key fields of a packed record block: 8-byte values on 12- or
        # 20-byte strides, so most of them are not 8-byte aligned.
        block = np.zeros((2, lengths.shape[0], m), dtype=kv_dtype(lanes))
        out = [block[field] for field in (KEY_FIELD, AUX_FIELD)[:lanes]]
        keys = scheme.key_matrices(codes, lengths, ScanWorkspace(), out=out)
        # What is returned is what was written, and nothing else was.
        assert all(np.array_equal(keys[side][lane], out[lane][side])
                   for side in (0, 1) for lane in range(lanes))
        assert not block[VAL_FIELD].any()
    else:
        keys = scheme.key_matrices(codes, lengths)
    expected = reference_keys(scheme, codes, lengths)
    for side, expected_side in zip(keys, expected):
        assert len(side) == lanes
        for lane in range(lanes):
            assert side[lane].shape == (lengths.shape[0], m)
            assert side[lane].dtype == np.uint64
            assert np.array_equal(side[lane], expected_side[lane])
    for _ in range(min(m, 3)):
        row, j = int(rng.integers(m)), int(rng.integers(lengths.shape[0]))
        l = int(lengths[j])
        assert tuple(int(lane[j, row]) for lane in keys[0]) \
            == scheme.naive_keys(codes[row, :l])
        assert tuple(int(lane[j, row]) for lane in keys[1]) \
            == scheme.naive_keys(codes[row, read_length - l:])


class TestAgainstReferenceScans:
    @given(st.one_of(st.integers(2, 130), st.just(250)), st.sampled_from((1, 2)),
           st.integers(0, 3), st.sampled_from(ROW_KINDS),
           st.sampled_from(LENGTH_KINDS), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_shape(self, read_length, lanes, seed, row_kind, length_kind,
                       via_out, data_seed):
        check_kernel(read_length, lanes, seed, row_kind, length_kind, via_out,
                     data_seed)

    @pytest.mark.parametrize("row_kind", ROW_KINDS)
    @pytest.mark.parametrize("length_kind", LENGTH_KINDS)
    @pytest.mark.parametrize("read_length,via_out", [(101, True), (250, False)])
    def test_every_tile_edge_and_length_set(self, read_length, via_out,
                                            length_kind, row_kind):
        """The grid hypothesis only samples: a length that is no multiple of
        4 through ``out=``, and ``L`` = 250 returned, two lanes."""
        check_kernel(read_length, 2, 1, row_kind, length_kind, via_out, 18)

    @pytest.mark.parametrize("seed", range(4))
    def test_all_t_read_under_each_prime(self, seed):
        """Code 3 everywhere at ``L`` = 250: the largest unreduced sums."""
        scheme = FingerprintScheme(lanes=2, seed=seed)
        assert {spec.prime for spec in scheme.hash_specs} == set(MODULUS_PRIMES)
        read_length = 250
        codes = np.full((3, read_length), 3, dtype=np.uint8)
        lengths = np.arange(1, read_length + 1)
        keys = scheme.key_matrices(codes, lengths)
        expected = reference_keys(scheme, codes, lengths)
        for side, expected_side in zip(keys, expected):
            for lane in range(2):
                assert np.array_equal(side[lane], expected_side[lane])
        for l in (1, 63, 249, 250):
            naive = scheme.naive_keys(codes[0, :l])
            for side in keys:  # an all-T prefix is the all-T suffix
                assert tuple(int(lane[l - 1, 0]) for lane in side) == naive


class TestArguments:
    scheme = FingerprintScheme(lanes=2)
    codes = np.zeros((4, 10), dtype=np.uint8)

    @pytest.mark.parametrize("lengths", [
        [], [0, 1], [5, 11], [3, 3], [4, 2], [[1, 2]]])
    def test_bad_lengths(self, lengths):
        with pytest.raises(ConfigError, match="lengths"):
            self.scheme.key_matrices(self.codes, lengths)

    def test_batch_must_be_2d(self):
        with pytest.raises(ConfigError, match="batch"):
            self.scheme.key_matrices(self.codes[0], [1])

    @pytest.mark.parametrize("out", [
        [np.empty((2, 3, 4), np.uint64)],                       # one lane short
        [np.empty((2, 3, 5), np.uint64)] * 2,                   # wrong rows
        [np.empty((3, 4), np.uint64)] * 2,                      # no side axis
        [np.empty((2, 3, 4), np.uint64), np.empty((2, 3, 4), np.int64)]])
    def test_bad_out(self, out):
        with pytest.raises(ConfigError, match="out"):
            self.scheme.key_matrices(self.codes, [2, 5, 9], out=out)

    def test_zero_rows_leave_the_workspace_alone(self):
        workspace = ScanWorkspace()
        prefix, suffix = self.scheme.key_matrices(self.codes[:0], [2, 5, 9],
                                                  workspace)
        assert [keys.shape for keys in prefix + suffix] == [(3, 0)] * 4
        assert workspace.nbytes == 0


# -- the map phase on top of the kernel ----------------------------------------


def _expected_partitions(scheme, store, lengths, batch_reads):
    """``{(side, length): records}`` assembled per device batch, orientation
    and length from the reference scans, in partition-file order."""
    pieces = {(side, l): [] for side in "PS" for l in lengths}
    for lo in range(0, store.n_reads, batch_reads):
        hi = min(lo + batch_reads, store.n_reads)
        forward = store.read_slice(lo, hi).codes
        for orientation, codes in enumerate((forward, reverse_complement(forward))):
            vertices = (np.arange(lo, hi, dtype=np.uint32) << np.uint32(1)) \
                | np.uint32(orientation)
            for side, keys in zip("PS", reference_keys(scheme, codes, lengths)):
                for j, l in enumerate(lengths):
                    pieces[side, l].append(make_records(
                        keys[0][j], vertices,
                        keys[1][j] if scheme.lanes == 2 else None))
    return {key: np.concatenate(parts) for key, parts in pieces.items()}


def _read_partitions(partitions):
    found = {}
    for path in sorted(partitions.root.iterdir()):
        side, length = path.name.split(".")[0].split("_")
        with partitions.open_run(side, int(length)) as reader:
            found[side, int(length)] = reader.read_all()
    return found


@pytest.mark.parametrize("batch_reads", [5, 16, None])
@pytest.mark.parametrize("lanes", [1, 2])
def test_run_map_files_are_the_reference_assemblies(tmp_path, tiny_md, lanes,
                                                    batch_reads):
    batch_reads = batch_reads or tiny_md.n_reads
    config = AssemblyConfig(
        min_overlap=tiny_md.spec.min_overlap, fingerprint_lanes=lanes,
        memory=MemoryConfig(1 << 30, batch_device_bytes(
            batch_reads, tiny_md.spec.read_length, lanes)))
    ctx = RunContext(config, workdir=tmp_path / "work")
    try:
        with PackedReadStore.open(tiny_md.store_path) as store:
            lengths = partition_lengths(ctx, store.read_length)
            partitions, report = run_map(ctx, store)
            expected = _expected_partitions(ctx.scheme, store, lengths,
                                            batch_reads)
            # The whole-read length has its P side only (S_L equals P_L).
            del expected["S", store.read_length]
        assert report.n_batches == -(-tiny_md.n_reads // batch_reads)
        found = _read_partitions(partitions)
        assert found.keys() == expected.keys()
        for key, records in expected.items():
            assert found[key].tobytes() == records.tobytes(), key
    finally:
        ctx.cleanup()


def test_only_lengths_rebuilds_equal_the_full_map(tmp_path, tiny_md):
    config = AssemblyConfig(
        min_overlap=tiny_md.spec.min_overlap, fingerprint_lanes=2,
        memory=MemoryConfig(1 << 30, batch_device_bytes(
            7, tiny_md.spec.read_length, 2)))
    read_range = (13, 110)
    files = {}
    for name, only in (("full", None), ("one", {31}), ("some", {25, 26, 40, 49}),
                       ("whole", {50}), ("whole-and-one", {31, 50})):
        ctx = RunContext(config, workdir=tmp_path / name)
        try:
            with PackedReadStore.open(tiny_md.store_path) as store:
                partitions, report = run_map(ctx, store, read_range=read_range,
                                             only_lengths=only)
            files[name] = {path.name: path.read_bytes()
                           for path in partitions.root.iterdir()}
            # The whole-read length 50 (in a full map too) has its P side only.
            whole = only is None or 50 in only
            n_kept = len(only or report.lengths) - (only is not None and whole)
            assert report.tuples_written == 2 * 97 * (2 * n_kept + whole)
            assert len(files[name]) == 2 * n_kept + whole
        finally:
            ctx.cleanup()
    for name in ("one", "some", "whole", "whole-and-one"):
        assert files[name] == {file: files["full"][file] for file in files[name]}


def test_workspace_does_not_grow_with_the_block():
    """The kernel walks tiles, so a thread's scratch is one tile's worth."""
    scheme = FingerprintScheme(lanes=2)
    read_length, lengths = 100, tuple(range(63, 100))
    rng = np.random.default_rng(3)
    held = []

    def fingerprint_blocks():
        # A fresh thread owns a fresh thread-local workspace. Both blocks
        # span several tiles (253 reads here).
        for n in (600, 4000):
            packed = pack_codes(rng.integers(0, 4, (n, read_length), dtype=np.uint8))
            map_phase._fingerprint_block(packed, 0, read_length, n, scheme,
                                         lengths, None, kv_dtype(2))
            held.append(map_phase._scan_workspace().nbytes)

    thread = threading.Thread(target=fingerprint_blocks)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    small, large = held
    assert 0 < large <= small < 1 << 20
