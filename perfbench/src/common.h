// What the workloads share: arguments, the per-round record the binary
// writes out, the counter probe taken around each measured phase, the
// seeded content pool, and the round loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "lld/lld.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

// Rounds a run makes at the least, however short --seconds is.
inline constexpr int kMinRounds = 3;

// One histogram's samples within a phase: (bucket upper bound, count).
using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// One round: a fresh set-up, one measured phase, then verification.
// Counters are deltas over the measured phase. A recovery round holds
// several restarts; `units` counts them (1 for the other workloads).
struct RoundResult {
  bool traced = false;
  double setup_s = 0.0;
  double timed_s = 0.0;  // measured time: the base of ops/s
  double wall_s = 0.0;   // wall time of the measured phase
  std::uint64_t units = 1;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::map<std::string, std::vector<std::uint64_t>> samples_ns;
  std::uint64_t payload_bytes = 0;
  std::uint64_t device_bytes_written = 0;
  std::map<std::string, double> counters;
  std::map<std::string, Buckets> hists;
  std::vector<aru::lld::RecoveryReport> recoveries;
  std::vector<SpanRow> spans;
};

struct RunResult {
  std::vector<RoundResult> rounds;
  std::vector<std::string> errors;  // failed correctness checks

  // Records a failed check (the first few are kept verbatim).
  void Fail(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Counter state of one LLD and its device at one instant.
struct Probe {
  aru::lld::LldStats lld;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t slot_pin_retries = 0;
  std::uint64_t mu_waits = 0;
  std::uint64_t table_shard_waits = 0;
  aru::obs::Histogram::Snapshot cleaner_pass_us;
  aru::obs::Histogram::Snapshot flush_wait_us;
  aru::DeviceStats dev;
  std::uint32_t sector_size = 512;
};

Probe TakeProbe(const aru::lld::Lld& lld, const aru::BlockDevice& device);
// Adds the counter deltas (after - before) into round.counters and the
// histogram deltas into round.hists.
void AddDelta(const Probe& before, const Probe& after, RoundResult& round);

// Seeded random bytes; a file's content is a slice chosen by a key, so
// expected bytes need no per-file storage.
class ContentPool {
 public:
  explicit ContentPool(std::uint64_t seed);
  aru::ByteSpan Slice(std::uint64_t key, std::size_t size) const;

 private:
  aru::Bytes pool_;
};

double SecondsSince(std::uint64_t start_ns);

// Runs rounds until at least kMinRounds have run and their measured
// phases add up to args.seconds, or a correctness check fails. With
// args.trace, even rounds are traced and odd rounds are not, so the run
// also yields the tracing overhead.
RunResult RunRounds(const Args& args,
                    const std::function<RoundResult(bool traced, RunResult&)>&
                        round);

// Turns span recording on for its lifetime (after zeroing the ledgers)
// when `traced`; Finish() turns it off and returns the collected rows.
class TracedSection {
 public:
  explicit TracedSection(bool traced);
  ~TracedSection();
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;
  std::vector<SpanRow> Finish();

 private:
  bool traced_;
};

// Workloads.
RunResult RunFsMeta(const Args& args);
RunResult RunTxnCommit(const Args& args);
RunResult RunRecovery(const Args& args);

}  // namespace perfbench
