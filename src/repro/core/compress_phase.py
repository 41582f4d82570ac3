"""Compress phase: path traversal and contig generation (§III.D, Fig. 7).

Stage 1 walks the host-resident graph into a :class:`~repro.graph.PathSet`
(seeds: in-degree 0, out-degree 1; singletons become single-read paths), and
— as an extension the paper leaves unspecified — optionally drops each
path's reverse-complement twin.

Stage 2 lays contigs out exactly as Fig. 7 describes:

1. an exclusive scan over path lengths gives each path's slot in the path
   table, and an exclusive scan over overhang lengths gives each read's
   byte offset inside the concatenated contig buffer;
2. each (offset, overhang, orientation) triple is scattered to the slot of
   its *vertex id* — a gather/scatter by stencil, collision-free because a
   vertex belongs to at most one path;
3. the packed reads are streamed from disk once; each read in a path
   contributes its first ``overhang`` bases (reverse-complemented first if
   the vertex is a complement vertex) at its offset. Each streaming step
   is the largest batch of reads whose codes and reverse complements fit
   beside the placement tables in the host budget
   (:func:`~repro.core.residency.stream_batch_reads`).
"""

from __future__ import annotations

import numpy as np

from ..graph import GreedyStringGraph, PathSet, extract_paths
from ..graph.contigs import ContigSet
from ..seq.alphabet import reverse_complement
from ..seq.packing import PackedReadStore
from .context import RunContext
from .residency import compress_read_bytes, stream_batch_reads


def run_compress(ctx: RunContext, graph: GreedyStringGraph, store: PackedReadStore,
                 *, release_graph: bool = True) -> tuple[ContigSet, PathSet]:
    """Spell every path into a contig; returns (contigs, paths).

    With ``release_graph`` (the default) the graph's host reservation is
    freed as soon as the paths are extracted — contig generation only needs
    the path table, and at paper scale graph + placement tables together
    would not fit the 64 GB host.
    """
    with ctx.tracer.span("compress:paths", track="pipeline", det=True) as span:
        paths = extract_paths(graph).deduplicated()
        span.note(paths=paths.n_paths)

    n_vertices = graph.n_vertices
    if release_graph:
        graph.release()
    total = paths.vertices.shape[0]

    # Fig. 7: offsets by exclusive scans, placed per vertex with a gather.
    # The path table can exceed device memory (at paper scale it does), so
    # the scan streams device-sized chunks with a running carry.
    chunk_records = max(
        2, int(ctx.config.memory.device_bytes * ctx.config.memory.buffer_fraction)
        // (3 * paths.overhangs.dtype.itemsize))
    read_offsets = np.empty(total, dtype=np.int64)
    carry = 0
    for start in range(0, total, chunk_records):
        chunk = paths.overhangs[start:start + chunk_records]
        overhangs_d = ctx.gpu.to_device(chunk, label="compress-overhangs")
        scanned_d = ctx.gpu.exclusive_scan(overhangs_d)
        read_offsets[start:start + chunk.shape[0]] = \
            ctx.gpu.to_host(scanned_d) + carry
        overhangs_d.free()
        scanned_d.free()
        carry += int(chunk.sum())

    contig_lengths = paths.contig_lengths()
    contig_offsets = np.concatenate(([0], np.cumsum(contig_lengths))).astype(np.int64)
    total_bases = int(contig_offsets[-1])

    # Per-vertex placement tables (scatter by vertex id; unique by degree cap).
    dest_offset = np.full(n_vertices, -1, dtype=np.int64)
    take_bases = np.zeros(n_vertices, dtype=np.uint16)
    if total:
        dest_offset[paths.vertices] = read_offsets
        take_bases[paths.vertices] = paths.overhangs.astype(np.uint16)
    ctx.gpu.charge_elementwise(3 * total * 8)

    flat = np.zeros(total_bases, dtype=np.uint8)
    with ctx.tracer.span("compress:spell", track="pipeline", det=True,
                         bases=total_bases), \
            ctx.host_pool.alloc(flat.nbytes + dest_offset.nbytes + take_bases.nbytes,
                                label="compress-contigs"):
        read_bytes = compress_read_bytes(store.read_length)
        for batch in store.iter_batches(stream_batch_reads(ctx, read_bytes)):
            with ctx.host_pool.alloc(batch.n_reads * read_bytes,
                                     label="compress-batch"):
                for orientation in (0, 1):
                    vertices = (batch.read_ids.astype(np.int64) << 1) \
                        | orientation
                    selected = np.nonzero(dest_offset[vertices] >= 0)[0]
                    if selected.size == 0:
                        continue
                    codes = batch.codes[selected]
                    if orientation == 1:
                        codes = reverse_complement(codes)
                    takes = take_bases[vertices[selected]].astype(np.int64)
                    dests = dest_offset[vertices[selected]]
                    # Ragged placement: read i contributes codes[i, :takes[i]]
                    # at flat[dests[i]:dests[i]+takes[i]].
                    rows = np.repeat(np.arange(selected.shape[0]), takes)
                    base = np.repeat(np.cumsum(takes) - takes, takes)
                    cols = np.arange(rows.shape[0]) - base
                    positions = np.repeat(dests, takes) + cols
                    flat[positions] = codes[rows, cols]
                    ctx.gpu.charge_elementwise(2 * positions.shape[0])
    return ContigSet(flat, contig_offsets), paths
