"""Every number the paper publishes, transcribed for comparison tables.

Tables are verbatim; figure series are digitized approximations from the
plots (marked so). Benchmarks print these as their "paper" column and
EXPERIMENTS.md records shape agreement against them.
"""

from __future__ import annotations

from ..units import parse_duration

DATASET_ORDER = ("H.Chr 14", "Bumblebee", "Parakeet", "H.Genome")

#: Table I — Illumina datasets used for evaluation.
TABLE1 = {
    "H.Chr 14": {"length": 101, "reads": 45_711_162, "bases": 4_559_613_772,
                 "size_gb": 9.2, "min_overlap": 63},
    "Bumblebee": {"length": 124, "reads": 316_172_570, "bases": 33_562_702_234,
                  "size_gb": 85.0, "min_overlap": 85},
    "Parakeet": {"length": 150, "reads": 608_709_922, "bases": 91_306_488_300,
                 "size_gb": 203.0, "min_overlap": 111},
    "H.Genome": {"length": 100, "reads": 1_247_518_392, "bases": 124_751_839_200,
                 "size_gb": 398.0, "min_overlap": 63},
}

def _phases(map_, sort, reduce, compress, load, total):
    return {
        "map": parse_duration(map_),
        "sort": parse_duration(sort),
        "reduce": parse_duration(reduce),
        "compress": parse_duration(compress),
        "load": parse_duration(load),
        "total": parse_duration(total),
    }


#: Table II — single-node assembly seconds, 128 GB host + K40 (12 GB).
TABLE2_K40 = {
    "H.Chr 14": _phases("5m 32s", "9m 36s", "4m 47s", "6s", "25s", "20m 26s"),
    "Bumblebee": _phases("33m 20s", "1h 21m 0s", "26m 6s", "20s", "3m 9s", "2h 23m 55s"),
    "Parakeet": _phases("1h 40m 58s", "4h 57m 56s", "1h 17m 31s", "26s", "5m 57s",
                        "8h 2m 48s"),
    "H.Genome": _phases("2h 43m 15s", "11h 05m 45s", "2h 20m 33s", "57s", "10m 39s",
                        "16h 21m 09s"),
}

#: Table III — single-node assembly seconds, 64 GB host + K20X (6 GB).
TABLE3_K20 = {
    "H.Chr 14": _phases("5m 59s", "11m 12s", "4m 26s", "5s", "23s", "22m 5s"),
    "Bumblebee": _phases("36m 8s", "1h 35m 25s", "27m 35s", "19s", "2m 51s",
                         "2h 42m 18s"),
    "Parakeet": _phases("1h 47m 58s", "5h 41m 23s", "1h 14m 13s", "26s", "5m 31s",
                        "8h 49m 31s"),
    "H.Genome": _phases("2h 50m 28s", "14h 53m 21s", "2h 31m 43s", "56s", "11m 48s",
                        "20h 28m 16s"),
}

#: Table IV — peak memory (GB), 128 GB host + K40.
TABLE4_MEMORY_K40 = {
    "H.Chr 14": {"host": {"map": 14.48, "sort": 14.92, "reduce": 16.87, "contig": 16.78},
                 "device": {"map": 10.74, "sort": 6.46, "reduce": 4.89}},
    "Bumblebee": {"host": {"map": 14.64, "sort": 34.40, "reduce": 19.55, "contig": 22.14},
                  "device": {"map": 10.74, "sort": 9.02, "reduce": 4.92}},
    "Parakeet": {"host": {"map": 16.82, "sort": 59.21, "reduce": 28.64, "contig": 28.39},
                 "device": {"map": 10.73, "sort": 9.02, "reduce": 4.92}},
    "H.Genome": {"host": {"map": 16.39, "sort": 103.73, "reduce": 38.11, "contig": 44.24},
                 "device": {"map": 10.73, "sort": 9.02, "reduce": 4.92}},
}

#: Table V — peak memory (GB), 64 GB host + K20X.
TABLE5_MEMORY_K20 = {
    "H.Chr 14": {"host": {"map": 7.23, "sort": 9.71, "reduce": 8.99, "contig": 9.01},
                 "device": {"map": 5.41, "sort": 4.54, "reduce": 2.47}},
    "Bumblebee": {"host": {"map": 9.03, "sort": 30.04, "reduce": 13.34, "contig": 18.14},
                  "device": {"map": 5.41, "sort": 4.54, "reduce": 2.50}},
    "Parakeet": {"host": {"map": 8.84, "sort": 54.20, "reduce": 19.48, "contig": 22.79},
                 "device": {"map": 5.40, "sort": 4.54, "reduce": 2.50}},
    "H.Genome": {"host": {"map": 9.18, "sort": 54.66, "reduce": 31.31, "contig": 38.95},
                 "device": {"map": 5.40, "sort": 4.54, "reduce": 2.50}},
}

#: Table VI — SGA (preprocess+index+overlap) vs LaSAGNA, seconds.
#: ``None`` marks the paper's out-of-memory cell.
TABLE6_SGA = {
    "H.Chr 14": {"sga_64": 3081, "sga_128": 3039, "lasagna_64": 1325, "lasagna_128": 1226},
    "Bumblebee": {"sga_64": 26360, "sga_128": 23958, "lasagna_64": 9738,
                  "lasagna_128": 8635},
    "Parakeet": {"sga_64": 93747, "sga_128": 88229, "lasagna_64": 31771,
                 "lasagna_128": 28968},
    "H.Genome": {"sga_64": None, "sga_128": 111024, "lasagna_64": 73696,
                 "lasagna_128": 58869},
}

#: Table VI speedup range the paper headlines.
TABLE6_SPEEDUP_RANGE = (1.89, 3.05)

#: Fig. 8 (digitized, approximate): average per-partition sort seconds on a
#: K40 for (host block-size, device block-size) in records. The paper's
#: qualitative claims: host block-size dominates; beyond a single-pass host
#: block (2.56 G records) no further gain.
FIG8_HOST_BLOCKS = (160_000_000, 320_000_000, 640_000_000, 1_280_000_000, 2_560_000_000)
FIG8_DEVICE_BLOCKS = (5_000_000, 10_000_000, 20_000_000, 40_000_000)

#: Fig. 9 (digitized, approximate): GPUs ordered fastest→slowest at large
#: host block-sizes, converging as blocks shrink (I/O-bound regime).
FIG9_GPU_ORDER_FAST_TO_SLOW = ("V100", "P100", "P40", "K40")

#: Fig. 10 (digitized, approximate): 398 GB H.Genome on K20 nodes — total
#: pipeline hours by node count; headline "a little over 5 hours" at n=8.
FIG10_TOTAL_HOURS = {1: 20.5, 2: 13.0, 4: 8.0, 8: 5.3}
