"""Workload definitions for the jackratio benchmark.

A run repeats one short iteration, each in a fresh interpreter, until its
time is up, and reports medians over iterations.  This machine's speed
swings by up to 60% for seconds at a time, so a single long measurement
per run is mostly noise; five or more short ones are not.  That is why the
paper's largest sizes are cut down here (see README.md).

An iteration runs its plan in order:

  ("table", ref)          build one series table with `get_table`
  ("auto", m, n, beta, h) `auto_converged_params(m, n, beta, moments=h)`
  ("snapshot",)           load the CLI's on-disk expansion cache (`load_expansion_cache`)
  "queries"               every query below, on the built tables
  "cold" / "warm"         one pass of the `jackratio` commands in `cli`; with
                          `cache_dir` (cli-cache only), "cold" starts from an
                          empty cache directory and "warm" reads the snapshot
                          "cold" left there
  "cli"                   "cold" then "warm"

JACKRATIO_CACHE_DIR is unset outside cli-cache, so there the "warm" pass
reads no snapshot: it is a second cold run of the same commands, and
`warm_cmd_s` on those workloads measures a re-run, not a cache read.

"queries" runs `quantile` at the table-1 alphas for each table in
`quantiles`, `summary_stats` for each in `stats`, `cdf(0.3)` for each in
`cdf03`, the seeded single-point `cdf` calls in `points`, and for each
Monte Carlo entry in `mc` one seeded sample whose points then go through
`cdf_many` (the KS comparison pools these over the run's iterations).

Every end-to-end metric must be reported, and be nonzero, on every
workload, so each workload has a small share of each phase; the layer named
in its `why` does most of the work.

A table reference is "aN", the parameters the N-th auto item returned, or
an explicit (m, n, beta, K).  A Monte Carlo entry is (m, n, beta, draws per
iteration, table reference).
"""

TABLE1_ALPHAS = (0.01, 0.05, 0.50, 0.90, 0.95)
TABLE2_MS = (5, 25, 45, 65, 85, 105)

_ALPHAS = ",".join(map(str, TABLE1_ALPHAS))
_T1A = ["dist", "table1", "--variant", "a"]

FULL = {
    "build-n3": {
        "plan": [("table", (10, 3, 2, 20)), ("table", (10, 3, 1, 25)),
                 ("table", (10, 3, 1, 50)), "queries", "cli"],
        "quantiles": [(10, 3, 1, 25), (10, 3, 1, 50)],
        "stats": [],
        "cdf03": [],
        "points": ((10, 3, 1, 50), 3000, 0.0, 1.0),
        "mc": [(10, 3, 1, 20_000, (10, 3, 1, 50))],
        "prefix": None,
        "cli": [["dist", "quantile", "--m", "10", "--n", "3", "--K", "10", "--alpha", "0.5"]],
    },
    "sweep-n2": {
        "plan": [("auto", m, 2, 1, 4) for m in TABLE2_MS]
        + [("auto", m, 2, 1, 0) for m in TABLE2_MS] + ["queries", "cli"],
        "quantiles": [],
        "stats": [f"a{i}" for i in range(len(TABLE2_MS))],
        "cdf03": [f"a{i}" for i in range(len(TABLE2_MS), 2 * len(TABLE2_MS))],
        # at m=105, K=100 every x >= 0.6 falls back to exact arithmetic
        "points": ((105, 2, 1, 100), 300, 0.6, 1.0),
        "mc": [(105, 2, 1, 30_000, (105, 2, 1, 100))],
        "prefix": None,
        "cli": [["dist", "fig1", "--m-grid", "5:5:5"]],
    },
    "mc-ks": {
        "plan": [("auto", 25, 2, 1, 0), ("auto", 25, 2, 2, 0), "queries", "cli"],
        "quantiles": ["a0", "a1"],
        "stats": [],
        "cdf03": [],
        "points": ("a1", 2000, 0.0, 1.0),
        "mc": [(25, 2, 1, 150_000, "a0"), (25, 2, 2, 150_000, "a1")],
        # a shorter run from the first sample's seed; crosses the 65536-draw chunk
        "prefix": 70_000,
        "cli": [["sim", "--m", "25", "--n", "2", "--reps", "100000",
                 "--alpha", _ALPHAS, "--seed", "{mc_seed}"]],
    },
    "cli-cache": {
        "plan": ["cold", "warm", ("snapshot",), ("table", (10, 3, 1, 40)), "queries"],
        "quantiles": [(10, 3, 1, 40)],
        "stats": [],
        "cdf03": [],
        "points": ((10, 3, 1, 40), 3000, 0.0, 1.0),
        "mc": [(10, 3, 1, 20_000, (10, 3, 1, 40))],
        "prefix": None,
        "cli": [_T1A,
                ["dist", "cdf", "--m", "10", "--n", "3", "--K", "40",
                 "--digits", "15", "--x", "{cli_points}"]],
        "cli_points": 100,
        "cache_dir": True,
    },
}

# Tiny sizes for the benchmark's own tests: same phases, about a second each.
SMOKE = {
    "build-n3": {
        "plan": [("table", (10, 3, 2, 8)), ("auto", 5, 2, 1, 0), ("table", (10, 3, 1, 25)),
                 "queries", "cli"],
        "quantiles": [(10, 3, 1, 25)],
        "stats": ["a0"],
        "cdf03": [],
        "points": ("a0", 50, 0.0, 1.0),
        "mc": [(5, 2, 1, 3_000, "a0")],
        "prefix": None,
        "cli": [_T1A],
    },
    "sweep-n2": {
        "plan": [("auto", 5, 2, 1, 4), ("auto", 25, 2, 1, 4), ("auto", 5, 2, 1, 0),
                 ("auto", 25, 2, 1, 0), "queries", "cli"],
        "quantiles": [],
        "stats": ["a0", "a1"],
        "cdf03": ["a2", "a3"],
        "points": ("a1", 50, 0.0, 1.0),
        "mc": [(25, 2, 1, 3_000, "a1")],
        "prefix": None,
        "cli": [["dist", "fig1", "--m-grid", "5:25:20"]],
    },
    "mc-ks": {
        "plan": [("auto", 5, 2, 1, 0), ("auto", 5, 2, 2, 0), "queries", "cli"],
        "quantiles": ["a0"],
        "stats": [],
        "cdf03": [],
        "points": ("a1", 50, 0.0, 1.0),
        "mc": [(5, 2, 1, 10_000, "a0"), (5, 2, 2, 10_000, "a1")],
        "prefix": 7_000,
        "cli": [["sim", "--m", "5", "--n", "2", "--reps", "7000",
                 "--alpha", _ALPHAS, "--seed", "{mc_seed}"]],
    },
    "cli-cache": {
        "plan": ["cold", "warm", ("snapshot",), ("table", (10, 3, 1, 25)), "queries"],
        "quantiles": [(10, 3, 1, 25)],
        "stats": [],
        "cdf03": [],
        "points": ((10, 3, 1, 25), 50, 0.0, 1.0),
        "mc": [(10, 3, 1, 3_000, (10, 3, 1, 25))],
        "prefix": None,
        "cli": [["dist", "cdf", "--m", "10", "--n", "3", "--K", "25",
                 "--digits", "15", "--x", "{cli_points}"]],
        "cli_points": 20,
        "cache_dir": True,
    },
}

SIZES = {"full": FULL, "smoke": SMOKE}
WORKLOADS = tuple(FULL)


def table_key(m, n, beta, K):
    return f"{m},{n},{beta},{K}"


def auto_key(m, n, beta, moments):
    return f"{m},{n},{beta},moments={moments}"
