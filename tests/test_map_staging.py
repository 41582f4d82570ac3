"""Host-staged map blocks: files and modeled costs do not depend on the block.

The map phase stages ``k`` device batches per host block (DESIGN.md §2f).
Everything the model sees is per device batch, so a staged run must equal a
run forced to ``k = 1`` in every partition byte, report field, clock
category, disk counter and device peak; the pools alone differ — the host
pool reserves the block that is really staged, and the device pool serves
one scratch reservation per host block.
"""

import hashlib

import numpy as np
import pytest

from repro.config import DEFAULT_BUFFER_FRACTION, AssemblyConfig, MemoryConfig
from repro.core import map_phase
from repro.core.context import RunContext
from repro.core.map_phase import run_map
from repro.device import costs
from repro.errors import HostMemoryError
from repro.extmem.records import kv_dtype
from repro.graph.bitvector import PackedBitVector
from repro.seq.packing import PackedReadStore

from .conftest import batch_device_bytes

#: A window that starts mid-store and ends in a ragged batch for 5 and 7.
READ_RANGE = (13, 110)


def _config(batch_reads: int, host_bytes: int) -> AssemblyConfig:
    """A device that holds exactly one batch under a host of ``host_bytes``."""
    return AssemblyConfig(min_overlap=25, memory=MemoryConfig(
        host_bytes, batch_device_bytes(batch_reads, 50), name="staging"))


def _map(tmp_path, name: str, config: AssemblyConfig, store_path, **kwargs):
    """Run the map phase alone; return everything a staged run must keep."""
    ctx = RunContext(config, workdir=tmp_path / name)
    try:
        store = PackedReadStore.open(store_path, meter=ctx.accountant)
        try:
            partitions, report = run_map(ctx, store, **kwargs)
        finally:
            store.close()
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(partitions.root.iterdir())}
        model = {"report": report,
                 "clock": dict(ctx.clock.counters()),
                 "disk": dict(ctx.accountant.counters()),
                 "device_peak": ctx.gpu.pool.lifetime_peak_bytes}
        allocs = ctx.gpu.pool.counters()["device_allocs"]
        return files, model, (ctx.host_pool.lifetime_peak_bytes, allocs)
    finally:
        ctx.cleanup()


@pytest.mark.parametrize("batch_reads", [1, 5, 7])
@pytest.mark.parametrize("blocks", ["k1", "k3", "whole", "device-sized"])
def test_staged_equals_unstaged(tmp_path, tiny_md, monkeypatch, batch_reads,
                                blocks):
    kept = frozenset(range(27, 40, 3))
    # The host holds a read's staged records: P and S, both orientations,
    # one record per kept length (240 B, a 20th of its device working set).
    per_read = 2 * 2 * len(kept) * kv_dtype(1).itemsize
    n_reads = READ_RANGE[1] - READ_RANGE[0]
    # So the smallest host a config allows, the device's size, stages 20
    # batches ("device-sized"). Under a roomy host STAGE_READS bounds the
    # block: k batches for "k1" / "k3", one block for the range ("whole").
    device_bytes = _config(batch_reads, 1 << 30).memory.device_bytes
    smallest = int(device_bytes * DEFAULT_BUFFER_FRACTION) \
        // (batch_reads * per_read)
    assert smallest == 20
    k = {"k1": 1, "k3": 3, "device-sized": smallest,
         "whole": -(-map_phase.STAGE_READS // batch_reads)}[blocks]
    if blocks in ("k1", "k3"):
        monkeypatch.setattr(map_phase, "STAGE_READS", k * batch_reads)
    config = _config(batch_reads,
                     device_bytes if blocks == "device-sized" else 1 << 22)
    kwargs = {"read_range": READ_RANGE, "only_lengths": kept}

    ctx = RunContext(config, workdir=tmp_path / "probe")
    assert map_phase._stage_batches(ctx, batch_reads, per_read) == k
    ctx.cleanup()

    files, model, (host_peak, allocs) = _map(tmp_path, "staged", config,
                                             tiny_md.store_path, **kwargs)
    monkeypatch.setattr(map_phase, "STAGE_READS", 1)
    ref_files, ref_model, (ref_host_peak, ref_allocs) = _map(
        tmp_path, "unstaged", config, tiny_md.store_path, **kwargs)

    assert len(files) == 2 * len(kept)
    assert files == ref_files
    assert model == ref_model  # exact floats
    assert model["report"].n_batches == -(-n_reads // batch_reads)
    # One store read per host block, metered as one per device batch.
    assert model["disk"]["disk_read_ops"] == model["report"].n_batches
    assert model["report"].tuples_written == 2 * 2 * n_reads * len(kept)
    assert ref_host_peak == batch_reads * per_read
    assert host_peak == min(k * batch_reads, n_reads) * per_read
    assert ref_allocs == model["report"].n_batches
    assert allocs == -(-n_reads // (k * batch_reads))


def test_whole_store_default_range(tmp_path, tiny_md, monkeypatch):
    """No ``read_range``/``only_lengths``: a ragged last batch of the store."""
    config = _config(7, 1 << 22)
    files, model, _ = _map(tmp_path, "staged", config, tiny_md.store_path)
    monkeypatch.setattr(map_phase, "STAGE_READS", 1)
    ref_files, ref_model, _ = _map(tmp_path, "unstaged", config,
                                   tiny_md.store_path)
    assert tiny_md.n_reads % 7  # the last batch is ragged
    assert files == ref_files and model == ref_model


@pytest.mark.parametrize("kwargs", [
    {}, {"only_lengths": frozenset({50})}, {"read_range": READ_RANGE}],
    ids=["eager", "whole-read", "read-range"])
def test_nothing_closed_is_every_claim_open(tmp_path, tiny_md, kwargs):
    """``closed=None`` maps what a bit-vector with nothing closed maps: the
    same files and report. The model differs by the compaction pass of
    each device batch alone, which only a given ``closed`` is charged."""
    config = _config(7, 1 << 22)
    files, model, pools = _map(tmp_path, "none", config, tiny_md.store_path,
                               **kwargs)
    empty = PackedBitVector(2 * tiny_md.n_reads)
    ref_files, ref_model, ref_pools = _map(
        tmp_path, "empty", config, tiny_md.store_path, closed=empty, **kwargs)
    assert files == ref_files
    assert model["report"] == ref_model["report"]
    assert model["disk"] == ref_model["disk"]
    assert model["device_peak"] == ref_model["device_peak"]
    assert pools == ref_pools

    start, stop = kwargs.get("read_range", (0, tiny_md.n_reads))
    batches = [min(7, stop - lo) for lo in range(start, stop, 7)]
    assert len(batches) == model["report"].n_batches
    ctx = RunContext(config, workdir=tmp_path / "probe")
    compaction = sum(costs.elementwise_seconds(ctx.gpu.spec, 2 * n * 50)
                     for n in batches)
    ctx.cleanup()
    clock, ref_clock = model["clock"], ref_model["clock"]
    assert compaction > 0
    for counter in ("sim_kernel_seconds", "sim_seconds"):
        assert ref_clock[counter] - clock[counter] \
            == pytest.approx(compaction, rel=1e-9)
    assert {counter: seconds for counter, seconds in clock.items()
            if counter not in ("sim_kernel_seconds", "sim_seconds")} \
        == {counter: seconds for counter, seconds in ref_clock.items()
            if counter not in ("sim_kernel_seconds", "sim_seconds")}


def test_place_is_file_order():
    """Per device batch: forward values, then reverse-complement values."""
    forward = np.arange(12)
    reverse = 100 + forward
    out = np.full((2, 24), -1)
    for orientation, values in enumerate((forward, reverse)):
        map_phase._place(out, orientation, np.stack([values, values]), 5)
    expected = np.concatenate([
        forward[0:5], reverse[0:5], forward[5:10], reverse[5:10],
        forward[10:12], reverse[10:12]])
    assert np.array_equal(out, np.stack([expected, expected]))



def test_a_block_fits_beside_the_resident_graph(tmp_path, tiny_md):
    """With the graph resident (a later band), the host block is cut from
    what the graph leaves: a block sized from the whole budget would not
    fit beside it."""
    config = AssemblyConfig(min_overlap=25, fingerprint_lanes=2,
                            memory=MemoryConfig(40_000, 16_000, name="cramped"))
    graph_bytes = 8_200
    closed = PackedBitVector(2 * tiny_md.n_reads)  # every claim open
    for resident in (graph_bytes, 0):
        ctx = RunContext(config, workdir=tmp_path / f"resident-{resident}")
        try:
            with PackedReadStore.open(tiny_md.store_path) as store, \
                    ctx.host_pool.alloc(graph_bytes, label="string-graph"):
                if not resident:
                    with pytest.raises(HostMemoryError):
                        run_map(ctx, store, closed=closed)
                    continue
                _, report = run_map(ctx, store, closed=closed,
                                    resident_bytes=resident)
            # Every overlap length's two sides, and P_L.
            assert report.tuples_written == 2 * tiny_md.n_reads * (2 * 25 + 1)
            assert ctx.host_pool.lifetime_peak_bytes \
                <= config.memory.host_bytes
        finally:
            ctx.cleanup()


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("batch_reads", [5, 7])
def test_bands_below_held_fingerprints_write_what_folding_bands_write(
        tmp_path, tiny_md, lanes, batch_reads):
    """Bands mapped longest first, each descending from the fingerprints
    the band above left (``seeds=``), write every file a band that folds
    writes, under a filter that closes more claims each band. The descent
    is charged less kernel time than the fold and its fingerprints'
    transfers, which the fold has none of; the last band releases them."""
    config = AssemblyConfig(min_overlap=25, fingerprint_lanes=lanes,
                            memory=MemoryConfig(1 << 22, batch_device_bytes(
                                batch_reads, 50), name="seeds"))
    bands = [[50], [49], [45, 46, 47, 48], [30, 33, 44], [25, 26, 27, 28, 29]]
    rng = np.random.default_rng(5)
    closing = rng.permutation(2 * tiny_md.n_reads)
    runs = {}
    for held in (False, True):
        ctx = RunContext(config, workdir=tmp_path / f"held-{held}")
        try:
            seeds = map_phase.HeldSeeds(
                (0, tiny_md.n_reads), 2 * lanes, ctx.host_pool.alloc(
                    map_phase.HeldSeeds.nbytes((0, tiny_md.n_reads), 2 * lanes))
            ) if held else None
            files, clocks = {}, []
            with PackedReadStore.open(tiny_md.store_path) as store:
                for index, band in enumerate(bands):
                    closed = None if index == 0 else PackedBitVector(
                        2 * tiny_md.n_reads)
                    if closed is not None:
                        closed.set(np.sort(closing[:index * 150]))
                    before = dict(ctx.clock.counters())
                    partitions, _ = run_map(ctx, store, closed=closed,
                                            only_lengths=set(band), seeds=seeds)
                    files.update({path.name: path.read_bytes()
                                  for path in partitions.root.iterdir()})
                    clocks.append({name: seconds - before.get(name, 0.0)
                                   for name, seconds in ctx.clock.counters().items()})
                    for path in partitions.root.iterdir():
                        path.unlink()
            runs[held] = files, clocks
            if held:
                assert seeds.values is None and ctx.host_pool.used_bytes == 0
        finally:
            ctx.cleanup()
    (folded, fold_clocks), (descended, descent_clocks) = runs[False], runs[True]
    assert descended == folded
    assert len(folded) == 2 * 13 + 1
    for index, (fold, descent) in enumerate(zip(fold_clocks, descent_clocks)):
        uploads = descent.get("sim_h2d_seconds", 0.0)
        downloads = descent.get("sim_d2h_seconds", 0.0)
        assert fold.get("sim_h2d_seconds", 0.0) == fold.get("sim_d2h_seconds", 0.0) == 0.0
        # P_L folds and leaves; every later band descends; the last leaves
        # nothing.
        assert (uploads > 0) == (index > 0)
        assert (downloads > 0) == (index < len(bands) - 1)
        if index:
            assert descent["sim_kernel_seconds"] < fold["sim_kernel_seconds"]
