#include "common.h"

#include <algorithm>
#include <tuple>

#include "util/rng.h"

namespace perfbench {
namespace {

std::uint64_t CounterValue(const aru::obs::Registry& registry,
                           std::string_view name) {
  // Absent counters read 0, so the probe survives a lock site going away.
  const aru::obs::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

aru::obs::Histogram::Snapshot HistogramSnapshot(
    const aru::obs::Registry& registry, std::string_view name) {
  const aru::obs::Histogram* histogram = registry.FindHistogram(name);
  return histogram == nullptr ? aru::obs::Histogram::Snapshot{}
                              : histogram->TakeSnapshot();
}

Buckets BucketDelta(const aru::obs::Histogram::Snapshot& before,
                    const aru::obs::Histogram::Snapshot& after) {
  Buckets out;
  for (std::size_t i = 0; i < aru::obs::Histogram::kBucketCount; ++i) {
    const std::uint64_t count = after.buckets[i] - before.buckets[i];
    if (count == 0) continue;
    const std::uint64_t bound =
        i == aru::obs::Histogram::kOverflowBucket
            ? after.max
            : aru::obs::Histogram::BucketUpperBound(i);
    out.emplace_back(bound, count);
  }
  return out;
}

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

}  // namespace

Probe TakeProbe(const aru::lld::Lld& lld, const aru::BlockDevice& device) {
  Probe p;
  p.lld = lld.stats();
  const aru::lld::BlockCacheStats cache = lld.read_cache_stats();
  p.cache_hits = cache.hits;
  p.cache_misses = cache.misses;
  const aru::obs::Registry& registry = lld.registry();
  p.slot_pin_retries = CounterValue(registry, "aru_lld_slot_pin_retries_total");
  p.mu_waits =
      CounterValue(registry, "aru_lock_contended_total_lld_mu_exclusive") +
      CounterValue(registry, "aru_lock_contended_total_lld_mu_shared");
  p.table_shard_waits = CounterValue(
      registry, "aru_lock_contended_total_lld_table_shard_exclusive");
  p.cleaner_pass_us = HistogramSnapshot(registry, "aru_lld_cleaner_pass_us");
  p.flush_wait_us = HistogramSnapshot(registry, "aru_lld_flush_wait_us");
  p.dev = device.stats();
  p.sector_size = device.sector_size();
  return p;
}

void AddDelta(const Probe& before, const Probe& after, RoundResult& round) {
  auto add = [&round](const char* name, std::uint64_t b, std::uint64_t a) {
    round.counters[name] += static_cast<double>(a - b);
  };
  const aru::lld::LldStats& b = before.lld;
  const aru::lld::LldStats& a = after.lld;
  add("lld.segments_written", b.segments_written, a.segments_written);
  add("lld.partial_segments", b.partial_segments_written,
      a.partial_segments_written);
  add("lld.blocks_written", b.blocks_written, a.blocks_written);
  add("lld.arus_committed", b.arus_committed, a.arus_committed);
  add("lld.link_log_replays", b.link_log_entries_replayed,
      a.link_log_entries_replayed);
  add("lld.pred_search_steps", b.predecessor_search_steps,
      a.predecessor_search_steps);
  add("lld.version_chain_steps", b.version_chain_steps, a.version_chain_steps);
  add("lld.flushes", b.flushes, a.flushes);
  add("lld.checkpoints", b.checkpoints, a.checkpoints);
  add("lld.cleaner_passes", b.cleaner_passes, a.cleaner_passes);
  add("lld.blocks_copied_by_cleaner", b.blocks_copied_by_cleaner,
      a.blocks_copied_by_cleaner);
  add("lld.read_cache_hits", before.cache_hits, after.cache_hits);
  add("lld.read_cache_misses", before.cache_misses, after.cache_misses);
  add("lld.slot_pin_retries", before.slot_pin_retries, after.slot_pin_retries);
  add("lld.mu_waits", before.mu_waits, after.mu_waits);
  add("lld.table_shard_waits", before.table_shard_waits,
      after.table_shard_waits);
  add("dev.read_ops", before.dev.read_ops, after.dev.read_ops);
  add("dev.write_ops", before.dev.write_ops, after.dev.write_ops);
  add("dev.syncs", before.dev.syncs, after.dev.syncs);
  const std::uint64_t written =
      (after.dev.sectors_written - before.dev.sectors_written) *
      after.sector_size;
  round.counters["dev.bytes_written"] += static_cast<double>(written);

  for (const auto& [name, b_hist, a_hist] :
       {std::tuple{"lld.cleaner_pass_us", &before.cleaner_pass_us,
                   &after.cleaner_pass_us},
        std::tuple{"lld.flush_wait_us", &before.flush_wait_us,
                   &after.flush_wait_us}}) {
    Buckets& merged = round.hists[name];
    for (const auto& bucket : BucketDelta(*b_hist, *a_hist)) {
      merged.push_back(bucket);
    }
  }
}

ContentPool::ContentPool(std::uint64_t seed) : pool_(1 << 20) {
  aru::Rng rng(seed ^ 0x636f6e74656e74ull);
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    std::uint64_t word = rng.Next();
    for (std::size_t j = 0; j < 8; ++j) {
      pool_[i + j] = static_cast<std::byte>(word & 0xff);
      word >>= 8;
    }
  }
}

aru::ByteSpan ContentPool::Slice(std::uint64_t key, std::size_t size) const {
  const std::size_t offset = Mix(key) % (pool_.size() - size + 1);
  return aru::ByteSpan(pool_).subspan(offset, size);
}

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

RunResult RunRounds(
    const Args& args,
    const std::function<RoundResult(bool traced, RunResult&)>& round) {
  RunResult run;
  double measured = 0.0;
  for (int i = 0; i < kMinRounds || measured < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 0;
    run.rounds.push_back(round(traced, run));
    run.rounds.back().traced = traced;
    measured += run.rounds.back().wall_s;
    if (!run.errors.empty()) break;
  }
  return run;
}

TracedSection::TracedSection(bool traced) : traced_(traced) {
  if (!traced_) return;
  Tracer::Reset();
  Tracer::SetEnabled(true);
}

TracedSection::~TracedSection() { Tracer::SetEnabled(false); }

std::vector<SpanRow> TracedSection::Finish() {
  Tracer::SetEnabled(false);
  if (!traced_) return {};
  return Tracer::Collect();
}

}  // namespace perfbench
