#include "spans.h"

#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

constexpr std::array<std::string_view, kSpanCount + 1> kNames = {
    "minixfs.create",  "minixfs.unlink",  "minixfs.open",
    "minixfs.write_at", "minixfs.read_at", "minixfs.close",
    "minixfs.sync",    "minixfs.mount",   "txn.begin",
    "txn.read",        "txn.write",       "txn.commit",
    "ld.new_list",     "ld.delete_list",  "ld.list_blocks",
    "ld.list_of",      "ld.new_block",    "ld.delete_block",
    "ld.move_block",   "ld.write",        "ld.read",
    "ld.read_many",    "ld.begin_aru",    "ld.end_aru",
    "ld.abort_aru",    "ld.flush",        "lld.open",
    "blockdev.read",   "blockdev.write",  "blockdev.sync",
    ""};

void Bump(std::atomic<std::uint64_t>& cell, std::uint64_t by) {
  // Single writer per cell: a plain load/store pair, no locked add.
  cell.store(cell.load(std::memory_order_relaxed) + by,
             std::memory_order_relaxed);
}

// Every thread that records a span registers one ledger. Ledgers
// outlive their threads, so an exited thread's totals are still
// collected.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLedger>> ledgers;
};

Registry& Ledgers() {
  static Registry* registry = new Registry;  // outlives every thread
  return *registry;
}

}  // namespace

std::string_view SpanName(SpanId id) {
  return kNames[static_cast<std::size_t>(id)];
}

void ThreadLedger::Begin(SpanId id, std::uint64_t now_ns) {
  stack_.push_back(Open{id, now_ns, 0});
}

void ThreadLedger::End(std::uint64_t now_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t total = now_ns - open.start_ns;
  const std::uint64_t self = total > open.child_ns ? total - open.child_ns : 0;
  SpanId parent = SpanId::kCount;
  if (!stack_.empty()) {
    stack_.back().child_ns += total;
    parent = stack_.back().id;
  }
  Cell& cell = cells_[CellIndex(parent, open.id)];
  Bump(cell.calls, 1);
  Bump(cell.total_ns, total);
  Bump(cell.self_ns, self);
}

void ThreadLedger::AddTo(std::vector<SpanRow>& rows) const {
  for (std::size_t p = 0; p <= kSpanCount; ++p) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const SpanId parent = static_cast<SpanId>(p);
      const SpanId id = static_cast<SpanId>(i);
      const Cell& cell = cells_[CellIndex(parent, id)];
      const std::uint64_t calls = cell.calls.load(std::memory_order_relaxed);
      if (calls == 0) continue;
      SpanRow* row = nullptr;
      for (SpanRow& r : rows) {
        if (r.parent == parent && r.id == id) row = &r;
      }
      if (row == nullptr) {
        rows.push_back(SpanRow{parent, id, 0, 0, 0});
        row = &rows.back();
      }
      row->calls += calls;
      row->total_ns += cell.total_ns.load(std::memory_order_relaxed);
      row->self_ns += cell.self_ns.load(std::memory_order_relaxed);
    }
  }
}

void ThreadLedger::Reset() {
  for (Cell& cell : cells_) {
    cell.calls.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
    cell.self_ns.store(0, std::memory_order_relaxed);
  }
}

std::atomic<bool> Tracer::enabled_{false};

void Tracer::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_seq_cst);
}

ThreadLedger& Tracer::ForThisThread() {
  thread_local ThreadLedger* ledger = [] {
    Registry& registry = Ledgers();
    const std::lock_guard<std::mutex> lock(registry.mu);
    registry.ledgers.push_back(std::make_unique<ThreadLedger>());
    return registry.ledgers.back().get();
  }();
  return *ledger;
}

std::vector<SpanRow> Tracer::Collect() {
  Registry& registry = Ledgers();
  const std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<SpanRow> rows;
  for (const auto& ledger : registry.ledgers) ledger->AddTo(rows);
  return rows;
}

void Tracer::Reset() {
  Registry& registry = Ledgers();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& ledger : registry.ledgers) ledger->Reset();
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench
