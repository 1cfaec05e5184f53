// txn_commit: 4 closed-loop client threads running txn::Transaction
// transactions. Each reads 2 blocks of a shared, read-only 256-block
// set (it fits the 1024-block LLD read cache, warmed in set-up) and
// writes 2 of the thread's own 64 blocks, so there are no lock
// conflicts and no list operations. Commits are durable
// (durable_commits, write-behind depth 1) over a LatencyDisk with a
// fixed 50 ms per device write: a 512 KB segment on a disk of the
// paper's era (seek plus ~10 MB/s). Concurrent commits share segment
// writes (group commit). The long write also keeps the commit tail
// steady: on a shared host, a blocked committer's wake-up can stall
// 10-15 ms, which at 20 ms per write swung the run-to-run p99 by 22%.
// Every seal takes a fresh 512 KB slot, so each round runs on a fresh
// 32 MB device and stops before the cleaner would be needed.
#include <atomic>
#include <algorithm>
#include <memory>
#include <thread>

#include "bench_support/latency_disk.h"
#include "blockdev/mem_disk.h"
#include "common.h"
#include "decorators.h"
#include "txn/txn.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kDeviceBytes = 32ull << 20;
constexpr int kThreads = 4;
constexpr std::uint32_t kSharedBlocks = 256;
constexpr std::uint32_t kPrivateBlocks = 64;  // per thread
constexpr int kReadsPerTxn = 2;
constexpr int kWritesPerTxn = 2;
constexpr std::uint64_t kWriteLatencyUs = 50000;
constexpr std::size_t kReadCacheBlocks = 1024;
constexpr std::size_t kTxnsPerThread = 4096;  // cycled through
constexpr double kRoundSeconds = 1.0;
// Slots kept free at the end of a round, well above the cleaner's
// reserve (4), so no round ever cleans.
constexpr std::uint64_t kSpareSlots = 16;
constexpr std::size_t kMaxErrors = 8;

struct Txn {
  std::uint32_t reads[kReadsPerTxn];
  std::uint32_t writes[kWritesPerTxn];
  std::uint64_t keys[kWritesPerTxn];
};

struct Plan {
  std::uint64_t shared_key_base = 0;
  std::vector<std::vector<Txn>> txns;  // per thread
};

Plan MakePlan(std::uint64_t seed) {
  aru::Rng rng(seed);
  Plan plan;
  plan.shared_key_base = rng.Next();
  plan.txns.resize(kThreads);
  for (auto& list : plan.txns) {
    list.resize(kTxnsPerThread);
    for (Txn& t : list) {
      for (auto& r : t.reads) {
        r = static_cast<std::uint32_t>(rng.Below(kSharedBlocks));
      }
      t.writes[0] = static_cast<std::uint32_t>(rng.Below(kPrivateBlocks));
      t.writes[1] = static_cast<std::uint32_t>(
          (t.writes[0] + 1 + rng.Below(kPrivateBlocks - 1)) % kPrivateBlocks);
      for (auto& k : t.keys) k = rng.Next();
    }
  }
  return plan;
}

aru::lld::Options TxnOptions() {
  aru::lld::Options options;
  options.read_cache_blocks = kReadCacheBlocks;
  options.durable_commits = true;
  options.write_behind_segments = 1;
  return options;
}

struct Layout {
  aru::ld::ListId shared_list;
  std::vector<aru::ld::BlockId> shared;
  std::vector<std::vector<aru::ld::BlockId>> priv;  // per thread
};

std::uint64_t InitialKey(std::size_t thread, std::size_t block) {
  return 0x696e6974ull ^ (thread << 32) ^ block;
}

aru::Status Populate(aru::ld::Disk& disk, const Plan& plan,
                     const ContentPool& pool, Layout& layout) {
  const std::uint32_t bs = disk.block_size();
  ARU_ASSIGN_OR_RETURN(layout.shared_list, disk.NewList());
  aru::ld::BlockId pred = aru::ld::kListHead;
  for (std::uint32_t i = 0; i < kSharedBlocks; ++i) {
    ARU_ASSIGN_OR_RETURN(pred, disk.NewBlock(layout.shared_list, pred));
    ARU_RETURN_IF_ERROR(
        disk.Write(pred, pool.Slice(plan.shared_key_base + i, bs)));
    layout.shared.push_back(pred);
  }
  layout.priv.resize(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ARU_ASSIGN_OR_RETURN(const aru::ld::ListId list, disk.NewList());
    pred = aru::ld::kListHead;
    for (std::uint32_t i = 0; i < kPrivateBlocks; ++i) {
      ARU_ASSIGN_OR_RETURN(pred, disk.NewBlock(list, pred));
      ARU_RETURN_IF_ERROR(disk.Write(pred, pool.Slice(InitialKey(t, i), bs)));
      layout.priv[t].push_back(pred);
    }
  }
  ARU_RETURN_IF_ERROR(disk.Flush());
  // Warm the read cache with the shared set.
  aru::Bytes buf(bs);
  for (const aru::ld::BlockId b : layout.shared) {
    ARU_RETURN_IF_ERROR(disk.Read(b, buf));
  }
  return aru::Status::Ok();
}

struct Worker {
  std::vector<std::uint64_t> latencies;
  std::vector<std::uint64_t> acked;  // key last acknowledged per block
  std::uint64_t commits = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

void RunWorker(std::size_t t, const Plan& plan, const ContentPool& pool,
               const Layout& layout, aru::txn::TransactionManager& manager,
               const std::atomic<bool>& go, const std::atomic<bool>& stop,
               Worker& w) {
  const std::uint32_t bs = manager.disk().block_size();
  std::vector<aru::Bytes> read_bufs(kReadsPerTxn, aru::Bytes(bs));
  const std::vector<Txn>& list = plan.txns[t];
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const Txn& txn = list[i % list.size()];
    const std::uint64_t start = NowNs();
    aru::Status s;
    std::unique_ptr<aru::txn::Transaction> tx;
    {
      const Span span(SpanId::kTxnBegin);
      auto begun = manager.Begin();
      if (begun.ok()) {
        tx = std::move(*begun);
      } else {
        s = begun.status();
      }
    }
    for (int r = 0; s.ok() && r < kReadsPerTxn; ++r) {
      const Span span(SpanId::kTxnRead);
      s = tx->Read(layout.shared[txn.reads[r]], read_bufs[r]);
    }
    for (int k = 0; s.ok() && k < kWritesPerTxn; ++k) {
      const Span span(SpanId::kTxnWrite);
      s = tx->Write(layout.priv[t][txn.writes[k]], pool.Slice(txn.keys[k], bs));
    }
    if (s.ok()) {
      const Span span(SpanId::kTxnCommit);
      s = tx->Commit(aru::txn::Durability::kNone);
    }
    const std::uint64_t latency = NowNs() - start;
    if (!s.ok()) {
      if (tx != nullptr) (void)tx->Abort();
      if (s.code() == aru::StatusCode::kFailedPrecondition) {
        ++w.retries;
        --i;  // retry the same transaction
        continue;
      }
      ++w.failed;
      if (w.errors.size() < kMaxErrors) w.errors.push_back(s.ToString());
      continue;
    }
    w.latencies.push_back(latency);
    ++w.commits;
    for (int k = 0; k < kWritesPerTxn; ++k) {
      w.acked[txn.writes[k]] = txn.keys[k];
    }
    for (int r = 0; r < kReadsPerTxn; ++r) {
      const aru::ByteSpan want =
          pool.Slice(plan.shared_key_base + txn.reads[r], bs);
      if (!std::equal(read_bufs[r].begin(), read_bufs[r].end(), want.begin())) {
        ++w.failed;
        if (w.errors.size() < kMaxErrors) {
          w.errors.push_back("shared block read returned wrong bytes");
        }
      }
    }
  }
}

// Recovers a copy of the device image and checks that every block
// holds the bytes of the last commit acknowledged for it.
aru::Status VerifyImage(aru::Bytes image, const Plan& plan,
                        const ContentPool& pool,
                        const std::vector<Worker>& workers,
                        const Layout& layout) {
  auto copy = aru::MemDisk::FromImage(std::move(image));
  ARU_ASSIGN_OR_RETURN(auto lld, aru::lld::Lld::Open(*copy, TxnOptions()));
  const std::uint32_t bs = lld->block_size();
  aru::Bytes buf(bs);
  auto check = [&](aru::ld::BlockId block, std::uint64_t key) -> aru::Status {
    ARU_RETURN_IF_ERROR(lld->Read(block, buf));
    const aru::ByteSpan want = pool.Slice(key, bs);
    if (!std::equal(buf.begin(), buf.end(), want.begin())) {
      return aru::CorruptionError("block " + std::to_string(block.value()) +
                                  " lost its last acknowledged commit");
    }
    return aru::Status::Ok();
  };
  for (std::uint32_t i = 0; i < kSharedBlocks; ++i) {
    ARU_RETURN_IF_ERROR(check(layout.shared[i], plan.shared_key_base + i));
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint32_t i = 0; i < kPrivateBlocks; ++i) {
      ARU_RETURN_IF_ERROR(check(layout.priv[t][i], workers[t].acked[i]));
    }
  }
  return aru::Status::Ok();
}


// Set-up and the measured phase on a live stack; returns the device
// image as the round leaves it (empty on a set-up failure). The live
// stack is gone before the caller recovers the image.
aru::Bytes MeasureRound(const Plan& plan, const ContentPool& pool,
                        bool traced, RunResult& run, RoundResult& round,
                        Layout& layout, std::vector<Worker>& workers) {
  const std::uint64_t setup_start = NowNs();
  auto owned_mem = std::make_unique<aru::MemDisk>(kDeviceBytes / 512);
  aru::MemDisk& mem = *owned_mem;
  aru::bench::LatencyDisk latency(std::move(owned_mem));
  std::unique_ptr<TracingDevice> traced_device;
  aru::BlockDevice* device = &latency;
  if (traced) {
    traced_device = std::make_unique<TracingDevice>(latency);
    device = traced_device.get();
  }
  const aru::lld::Options options = TxnOptions();
  if (aru::Status st = aru::lld::Lld::Format(*device, options); !st.ok()) {
    run.Fail("txn_commit format: " + st.ToString());
    return {};
  }
  auto opened = aru::lld::Lld::Open(*device, options);
  if (!opened.ok()) {
    run.Fail("txn_commit open: " + opened.status().ToString());
    return {};
  }
  std::unique_ptr<aru::lld::Lld> lld = std::move(*opened);
  std::unique_ptr<TracingDisk> traced_disk;
  aru::ld::Disk* disk = lld.get();
  if (traced) {
    traced_disk = std::make_unique<TracingDisk>(*lld);
    disk = traced_disk.get();
  }
  if (aru::Status st = Populate(*disk, plan, pool, layout); !st.ok()) {
    run.Fail("txn_commit populate: " + st.ToString());
    return {};
  }
  aru::txn::TransactionManager manager(*disk);
  const std::uint64_t slots = lld->geometry().slot_count;
  const std::uint64_t slot_cap =
      slots - std::min(slots, lld->stats().segments_written + kSpareSlots);
  latency.set_write_latency_us(kWriteLatencyUs);
  round.setup_s = SecondsSince(setup_start);

  const Probe before = TakeProbe(*lld, mem);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  TracedSection section(traced);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(RunWorker, t, std::cref(plan), std::cref(pool),
                         std::cref(layout), std::ref(manager), std::cref(go),
                         std::cref(stop), std::ref(workers[t]));
  }
  const std::uint64_t body_start = NowNs();
  go.store(true, std::memory_order_release);
  while (SecondsSince(body_start) < kRoundSeconds &&
         mem.stats().write_ops - before.dev.write_ops < slot_cap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  round.wall_s = round.timed_s = SecondsSince(body_start);
  round.spans = section.Finish();
  latency.set_write_latency_us(0);
  AddDelta(before, TakeProbe(*lld, mem), round);
  round.device_bytes_written =
      static_cast<std::uint64_t>(round.counters["dev.bytes_written"]);
  round.recoveries.push_back(lld->recovery_report());

  std::vector<std::uint64_t>& samples = round.samples_ns["commit"];
  for (const Worker& w : workers) {
    samples.insert(samples.end(), w.latencies.begin(), w.latencies.end());
    round.ops += w.commits;
    round.retries += w.retries;
    round.failed += w.failed;
    for (const std::string& e : w.errors) run.Fail("txn_commit: " + e);
  }
  round.payload_bytes = round.ops * kWritesPerTxn * lld->block_size();
  // Every acknowledged commit is durable here: the crash image.
  return mem.CopyImage();
}

RoundResult TxnRound(const Plan& plan, const ContentPool& pool, bool traced,
                     RunResult& run) {
  RoundResult round;
  Layout layout;
  std::vector<Worker> workers(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers[t].acked.resize(kPrivateBlocks);
    for (std::uint32_t i = 0; i < kPrivateBlocks; ++i) {
      workers[t].acked[i] = InitialKey(t, i);
    }
  }
  aru::Bytes image =
      MeasureRound(plan, pool, traced, run, round, layout, workers);
  if (image.empty()) return round;
  if (round.counters["lld.cleaner_passes"] > 0) {
    run.Fail("txn_commit: the cleaner ran; the device is too small");
  }
  if (aru::Status st =
          VerifyImage(std::move(image), plan, pool, workers, layout);
      !st.ok()) {
    run.Fail("txn_commit verify: " + st.ToString());
  }
  return round;
}

}  // namespace

RunResult RunTxnCommit(const Args& args) {
  const Plan plan = MakePlan(args.seed);
  const ContentPool pool(args.seed);
  return RunRounds(args, [&](bool traced, RunResult& run) {
    return TxnRound(plan, pool, traced, run);
  });
}

}  // namespace perfbench
