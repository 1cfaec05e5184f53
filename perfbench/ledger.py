"""Turns the benchmark binary's raw per-round records into the benchmark's metrics.

Pure arithmetic, no I/O: run.py feeds it the binary's JSON and
test_perfbench.py checks the rules below.

Rounds, units and ops. A run is a sequence of rounds; each round sets
up from scratch and then measures. A round of `fs_meta` or `txn_commit`
is one unit; a `recovery` round holds many restarts and each restart is
a unit. Counts reported "per unit" divide a total by the number of
units, so on the deterministic workloads they read the same in every
run. Client ops are MinixFs calls (fs_meta), durable commits
(txn_commit) or restarts (recovery).
"""

import math
import statistics

# End-to-end metrics, measured on untraced rounds.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("write_amp", "ratio"),
]

LD_CALLS = ["end_aru", "delete_block", "new_block", "write", "read", "flush",
            "begin_aru", "list_blocks", "new_list", "delete_list", "read_many"]
RECOVERY_PHASES = ["checkpoint_load", "summary_scan", "replay",
                   "orphan_reclaim", "checkpoint"]

# Per-layer metrics, measured on traced rounds (the fs_* latencies and
# the overheads also use the run's untraced rounds).
PER_LAYER = (
    [("minixfs.self_us_per_op", "us"),
     ("minixfs.ld_calls_per_op", "count"),
     ("minixfs.ld_reads_per_op", "count"),
     ("fs_meta_op_p50_us", "us"),
     ("fs_meta_op_p99_us", "us"),
     ("fs_read_p50_us", "us"),
     ("fs_read_p99_us", "us"),
     ("fs_write_p50_us", "us"),
     ("fs_write_p99_us", "us"),
     ("txn.self_us_per_commit", "us"),
     ("txn.retries_per_commit", "count"),
     ("ld.self_us_per_op", "us")]
    + [(f"ld.{c}.{k}", u) for c in LD_CALLS
       for k, u in (("calls", "count"), ("self_us", "us"))]
    + [("lld.pred_search_steps_per_op", "count"),
       ("lld.link_log_replays_per_op", "count"),
       ("lld.version_chain_steps_per_op", "count"),
       ("lld.read_cache_hit_ratio", "ratio"),
       ("lld.slot_pin_retries", "count"),
       ("lld.table_shard_waits", "count"),
       ("lld.mu_waits", "count"),
       ("lld.cleaner_passes", "count"),
       ("lld.cleaner_copied_per_user_block", "ratio"),
       ("lld.cleaner_pass_us_p99", "us"),
       ("lld.checkpoints", "count"),
       ("lld.group_commit_size", "ratio"),
       ("lld.partial_segment_ratio", "ratio"),
       ("lld.flush_wait_us_p50", "us"),
       ("lld.segments_written", "count"),
       ("lld.open.self_us", "us")]
    + [(f"lld.recovery.{p}_ms", "ms") for p in RECOVERY_PHASES]
    + [("lld.recovery.records_replayed", "count"),
       ("blockdev.write_ops", "count"),
       ("blockdev.write_bytes_per_op", "bytes"),
       ("blockdev.read_ops_per_op", "count"),
       ("blockdev.busy_us", "us"),
       ("blockdev.self_us_per_op", "us"),
       ("blockdev.syncs", "count"),
       ("trace.overhead_ops_per_s_pct", "%"),
       ("trace.overhead_op_p50_pct", "%"),
       ("trace.overhead_op_p99_pct", "%")]
)

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values, q):
    """The q-th percentile (nearest rank) of `values`. A percentile is
    reported only with at least MIN_BEYOND samples beyond it: when q is
    too high for the sample count, the highest percentile that has them
    is reported instead, and None when none has (MIN_BEYOND samples or
    fewer)."""
    n = len(values)
    rank = min(math.ceil(q / 100.0 * n), n - MIN_BEYOND)
    if rank < 1:
        return None
    return sorted(values)[rank - 1]


# Samples a block needs for its p99 to have MIN_BEYOND samples beyond.
BLOCK_SAMPLES = 1000


def blocks(rounds, classes=None):
    """Consecutive rounds' samples pooled into blocks of at least
    BLOCK_SAMPLES (a short remainder joins the last block)."""
    out, cur = [], []
    for r in rounds:
        cur.extend(_samples([r], classes))
        if len(cur) >= BLOCK_SAMPLES:
            out.append(cur)
            cur = []
    if cur:
        if out:
            out[-1].extend(cur)
        else:
            out.append(cur)
    return out


def latency_us(rounds, q, classes=None):
    """The q-th percentile of op latency in microseconds: the median over
    blocks of each block's percentile, so a burst of host interference
    in one block moves the result less than it moves a pooled tail.
    0 when no block has enough samples."""
    values = [percentile(b, q) for b in blocks(rounds, classes)]
    values = [v for v in values if v is not None]
    return statistics.median(values) / 1000.0 if values else 0.0


def ratio(num, den):
    """num/den, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def write_amp(device_bytes, payload_bytes):
    """Device bytes written per user payload byte."""
    return ratio(device_bytes, payload_bytes)


def bucket_samples(buckets):
    """Histogram buckets [(upper bound, count)] as a sample list."""
    out = []
    for bound, count in buckets:
        out.extend([bound] * count)
    return out


def self_time_totals(rows):
    """Sums span rows by name: {name: (calls, total_ns, self_ns)}."""
    totals = {}
    for row in rows:
        calls, total, own = totals.get(row["name"], (0, 0, 0))
        totals[row["name"]] = (calls + row["calls"], total + row["total_ns"],
                               own + row["self_ns"])
    return totals


def _sum(rounds, key):
    return sum(r[key] for r in rounds)


def _samples(rounds, classes=None):
    out = []
    for r in rounds:
        for cls, values in r["samples_ns"].items():
            if classes is None or cls in classes:
                out.extend(values)
    return out


def end_to_end(rounds, peak_rss_kb):
    """The end-to-end metrics of a set of rounds."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        # The median round: one round slowed by a busy host moves it less
        # than it moves the pooled rate.
        "ops_per_s": statistics.median(ratio(r["ops"], r["timed_s"])
                                       for r in rounds),
        "op_p50_us": latency_us(rounds, 50),
        "op_p99_us": latency_us(rounds, 99),
        "write_amp": write_amp(_sum(rounds, "device_bytes_written"),
                               _sum(rounds, "payload_bytes")),
    }


def _pct_change(new, base):
    return (new / base - 1.0) * 100.0 if base else 0.0


def per_layer(traced, untraced, peak_rss_kb):
    """The per-layer metrics from a trace run's traced rounds, with its
    untraced rounds supplying the fs latencies and the overhead base."""
    ops = _sum(traced, "ops")
    units = _sum(traced, "units")
    c = {}
    for r in traced:
        for name, value in r["counters"].items():
            c[name] = c.get(name, 0.0) + value
    rows = [row for r in traced for row in r["spans"]]
    spans = self_time_totals(rows)

    def span(name):
        return spans.get(name, (0, 0, 0))

    def per_op(x):
        return ratio(x, ops)

    def per_unit(x):
        return ratio(x, units)

    m = {}
    fs_rows = [row for row in rows if row["name"].startswith("minixfs.")]
    m["minixfs.self_us_per_op"] = per_op(
        sum(r["self_ns"] for r in fs_rows)) / 1e3
    from_fs = [row for row in rows if row["parent"].startswith("minixfs.")
               and row["name"].startswith("ld.")]
    m["minixfs.ld_calls_per_op"] = per_op(sum(r["calls"] for r in from_fs))
    m["minixfs.ld_reads_per_op"] = per_op(sum(
        r["calls"] for r in from_fs
        if r["name"] in ("ld.read", "ld.read_many")
        and r["parent"] not in ("minixfs.read_at", "minixfs.write_at")))

    base = untraced or traced
    for cls, label in (("meta", "meta_op"), ("read", "read"),
                       ("write", "write")):
        m[f"fs_{label}_p50_us"] = latency_us(base, 50, {cls})
        m[f"fs_{label}_p99_us"] = latency_us(base, 99, {cls})

    txn_self = sum(row["self_ns"] for row in rows
                   if row["name"].startswith("txn."))
    commits = span("txn.commit")[0]
    m["txn.self_us_per_commit"] = ratio(txn_self, commits) / 1e3
    m["txn.retries_per_commit"] = ratio(_sum(traced, "retries"), commits)

    ld_self = sum(v[2] for k, v in spans.items() if k.startswith("ld."))
    m["ld.self_us_per_op"] = per_op(ld_self) / 1e3
    for call in LD_CALLS:
        calls, _, own = span(f"ld.{call}")
        m[f"ld.{call}.calls"] = per_op(calls)
        m[f"ld.{call}.self_us"] = ratio(own, calls) / 1e3

    m["lld.pred_search_steps_per_op"] = per_op(
        c.get("lld.pred_search_steps", 0))
    m["lld.link_log_replays_per_op"] = per_op(c.get("lld.link_log_replays", 0))
    m["lld.version_chain_steps_per_op"] = per_op(
        c.get("lld.version_chain_steps", 0))
    hits = c.get("lld.read_cache_hits", 0)
    m["lld.read_cache_hit_ratio"] = ratio(
        hits, hits + c.get("lld.read_cache_misses", 0))
    for name in ("slot_pin_retries", "table_shard_waits", "mu_waits",
                 "cleaner_passes", "checkpoints", "segments_written"):
        m[f"lld.{name}"] = per_unit(c.get(f"lld.{name}", 0))
    m["lld.cleaner_copied_per_user_block"] = ratio(
        c.get("lld.blocks_copied_by_cleaner", 0),
        c.get("lld.blocks_written", 0))

    def hist(name, q):
        values = bucket_samples(b for r in traced
                                for b in r["hists"].get(name, []))
        value = percentile(values, q)
        return float(value) if value is not None else 0.0

    m["lld.cleaner_pass_us_p99"] = hist("lld.cleaner_pass_us", 99)
    m["lld.group_commit_size"] = ratio(c.get("lld.arus_committed", 0),
                                       c.get("lld.segments_written", 0))
    m["lld.partial_segment_ratio"] = ratio(c.get("lld.partial_segments", 0),
                                           c.get("lld.segments_written", 0))
    m["lld.flush_wait_us_p50"] = hist("lld.flush_wait_us", 50)
    opens, _, open_self = span("lld.open")
    m["lld.open.self_us"] = ratio(open_self, opens) / 1e3

    reports = [rep for r in traced for rep in r["recoveries"]]
    for phase in RECOVERY_PHASES:
        m[f"lld.recovery.{phase}_ms"] = (
            statistics.median(rep[f"{phase}_us"] for rep in reports) / 1e3
            if reports else 0.0)
    m["lld.recovery.records_replayed"] = (
        statistics.median(rep["records_replayed"] for rep in reports)
        if reports else 0.0)

    dev_writes = c.get("dev.write_ops", 0)
    m["blockdev.write_ops"] = per_unit(dev_writes)
    m["blockdev.write_bytes_per_op"] = ratio(c.get("dev.bytes_written", 0),
                                             dev_writes)
    m["blockdev.read_ops_per_op"] = per_op(c.get("dev.read_ops", 0))
    dev_rows = [row for row in rows if row["name"].startswith("blockdev.")]
    m["blockdev.busy_us"] = per_unit(
        sum(r["total_ns"] for r in dev_rows if not r["parent"])) / 1e3
    m["blockdev.self_us_per_op"] = per_op(
        sum(r["self_ns"] for r in dev_rows if r["parent"])) / 1e3
    m["blockdev.syncs"] = per_unit(c.get("dev.syncs", 0))

    slow = end_to_end(traced, peak_rss_kb)
    fast = end_to_end(untraced, peak_rss_kb) if untraced else slow
    m["trace.overhead_ops_per_s_pct"] = _pct_change(fast["ops_per_s"],
                                                    slow["ops_per_s"])
    m["trace.overhead_op_p50_pct"] = _pct_change(slow["op_p50_us"],
                                                 fast["op_p50_us"])
    m["trace.overhead_op_p99_pct"] = _pct_change(slow["op_p99_us"],
                                                 fast["op_p99_us"])
    return m


def summarize(raw):
    """The result line for one run: correctness, attempted and
    failed operations, and the metrics of the run's mode."""
    rounds = raw["rounds"]
    attempted = sum(r["ops"] for r in rounds)
    correct = not raw["errors"] and bool(rounds)
    # A failed check fails the whole run: every operation counts.
    failed = sum(r["failed"] for r in rounds) if correct else attempted
    if raw["trace"]:
        values = per_layer([r for r in rounds if r["traced"]],
                           [r for r in rounds if not r["traced"]],
                           raw["peak_rss_kb"])
        names = PER_LAYER
    else:
        values = end_to_end(rounds, raw["peak_rss_kb"])
        names = END_TO_END
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
