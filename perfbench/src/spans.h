// Layer spans for the benchmark's traced run.
//
// Every call the benchmark makes into a layer's public functions is
// wrapped in a Span (client calls in the workload code, ld::Disk and
// BlockDevice calls in the forwarding decorators of decorators.h). A
// span's self time is its duration minus the part of it that child
// spans on the same thread cover. Spans opened on a thread with no open
// span (such as the write-behind flusher's) have no
// parent; their time is reported as the layer's busy time.
//
// Spans are aggregated in memory, per thread, into (parent, span)
// cells; nothing is written while a run measures. Collect() sums the
// cells of every thread once the traced section is over.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

enum class SpanId : std::uint8_t {
  // Client: MinixFs.
  kFsCreate,
  kFsUnlink,
  kFsOpen,
  kFsWriteAt,
  kFsReadAt,
  kFsClose,
  kFsSync,
  kFsMount,
  // Client: txn.
  kTxnBegin,
  kTxnRead,
  kTxnWrite,
  kTxnCommit,
  // ld::Disk, as called on the LLD.
  kLdNewList,
  kLdDeleteList,
  kLdListBlocks,
  kLdListOf,
  kLdNewBlock,
  kLdDeleteBlock,
  kLdMoveBlock,
  kLdWrite,
  kLdRead,
  kLdReadMany,
  kLdBeginAru,
  kLdEndAru,
  kLdAbortAru,
  kLdFlush,
  // LLD administration.
  kLldOpen,
  // BlockDevice.
  kDevRead,
  kDevWrite,
  kDevSync,
  kCount
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(SpanId::kCount);

// "layer.call", e.g. "ld.write"; "" for kCount (the "no parent" slot).
std::string_view SpanName(SpanId id);

struct SpanRow {
  SpanId parent = SpanId::kCount;  // kCount: no parent on this thread
  SpanId id = SpanId::kCount;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

// One thread's open-span stack and aggregated cells. The arithmetic runs
// on caller-supplied timestamps, so tests can drive it directly. Only
// the owning thread calls Begin/End; cells are relaxed atomics so a
// collector on another thread reads them without a data race.
class ThreadLedger {
 public:
  void Begin(SpanId id, std::uint64_t now_ns);
  void End(std::uint64_t now_ns);

  // Appends the non-empty cells to `rows`, summing into rows that
  // already hold the same (parent, id).
  void AddTo(std::vector<SpanRow>& rows) const;
  void Reset();

 private:
  struct Open {
    SpanId id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  struct Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
  };
  static std::size_t CellIndex(SpanId parent, SpanId id) {
    return static_cast<std::size_t>(parent) * kSpanCount +
           static_cast<std::size_t>(id);
  }

  std::vector<Open> stack_;
  std::array<Cell, (kSpanCount + 1) * kSpanCount> cells_;
};

// Process-wide switch and registry of thread ledgers.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static ThreadLedger& ForThisThread();
  // Sums every thread's cells. Call only while no span is open.
  static std::vector<SpanRow> Collect();
  static void Reset();

 private:
  static std::atomic<bool> enabled_;
};

std::uint64_t NowNs();

// Scoped span. Decides at construction whether it records, so toggling
// the tracer mid-span never leaves a stack unbalanced.
class Span {
 public:
  explicit Span(SpanId id) {
    if (Tracer::enabled()) {
      ledger_ = &Tracer::ForThisThread();
      ledger_->Begin(id, NowNs());
    }
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->End(NowNs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLedger* ledger_ = nullptr;
};

}  // namespace perfbench
