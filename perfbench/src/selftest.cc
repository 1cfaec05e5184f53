// Tests of the span ledger's self-time arithmetic. Exits non-zero if
// any check fails; test_perfbench.py runs it.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                    \
  do {                                                                     \
    const auto va = (a);                                                   \
    const auto vb = (b);                                                   \
    if (va != vb) {                                                        \
      std::fprintf(stderr, "%s:%d: %s == %llu, want %llu\n", __FILE__,     \
                   __LINE__, #a, static_cast<unsigned long long>(va),      \
                   static_cast<unsigned long long>(vb));                   \
      ++failures;                                                          \
    }                                                                      \
  } while (false)

SpanRow Find(const std::vector<SpanRow>& rows, SpanId parent, SpanId id) {
  for (const SpanRow& r : rows) {
    if (r.parent == parent && r.id == id) return r;
  }
  return SpanRow{parent, id, 0, 0, 0};
}

// client [0,100) covers ld [10,60), which covers two device calls
// [20,30) and [40,45): the self times are 50, 35 and 10+5.
void NestedSelfTime() {
  ThreadLedger ledger;
  ledger.Begin(SpanId::kFsCreate, 0);
  ledger.Begin(SpanId::kLdWrite, 10);
  ledger.Begin(SpanId::kDevWrite, 20);
  ledger.End(30);
  ledger.Begin(SpanId::kDevWrite, 40);
  ledger.End(45);
  ledger.End(60);
  ledger.End(100);
  std::vector<SpanRow> rows;
  ledger.AddTo(rows);
  EXPECT_EQ(rows.size(), 3u);
  const SpanRow client = Find(rows, SpanId::kCount, SpanId::kFsCreate);
  EXPECT_EQ(client.calls, 1u);
  EXPECT_EQ(client.total_ns, 100u);
  EXPECT_EQ(client.self_ns, 50u);
  const SpanRow ld = Find(rows, SpanId::kFsCreate, SpanId::kLdWrite);
  EXPECT_EQ(ld.total_ns, 50u);
  EXPECT_EQ(ld.self_ns, 35u);
  const SpanRow dev = Find(rows, SpanId::kLdWrite, SpanId::kDevWrite);
  EXPECT_EQ(dev.calls, 2u);
  EXPECT_EQ(dev.total_ns, 15u);
  EXPECT_EQ(dev.self_ns, 15u);
}

// A device write on another thread (the write-behind flusher) overlaps
// the client's span in time but is not its child: it stays parentless
// and takes nothing off the client's self time.
void ParentlessFlusherSpan() {
  ThreadLedger client;
  ThreadLedger flusher;
  client.Begin(SpanId::kLdEndAru, 0);
  flusher.Begin(SpanId::kDevWrite, 10);
  flusher.End(90);
  client.End(100);
  std::vector<SpanRow> rows;
  client.AddTo(rows);
  flusher.AddTo(rows);
  const SpanRow commit = Find(rows, SpanId::kCount, SpanId::kLdEndAru);
  EXPECT_EQ(commit.self_ns, 100u);
  const SpanRow write = Find(rows, SpanId::kCount, SpanId::kDevWrite);
  EXPECT_EQ(write.calls, 1u);
  EXPECT_EQ(write.self_ns, 80u);
  EXPECT_EQ(Find(rows, SpanId::kLdEndAru, SpanId::kDevWrite).calls, 0u);
}

// Rows from several ledgers with the same (parent, span) sum up; Reset
// zeroes them.
void CollectSumsAndResets() {
  ThreadLedger a;
  ThreadLedger b;
  a.Begin(SpanId::kLdRead, 0);
  a.End(7);
  b.Begin(SpanId::kLdRead, 100);
  b.End(103);
  std::vector<SpanRow> rows;
  a.AddTo(rows);
  b.AddTo(rows);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 2u);
  EXPECT_EQ(rows[0].self_ns, 10u);
  a.Reset();
  rows.clear();
  a.AddTo(rows);
  EXPECT_EQ(rows.size(), 0u);
}

// The process tracer records only while enabled, per thread.
void TracerRecordsOnlyWhenEnabled() {
  Tracer::Reset();
  { const Span off(SpanId::kFsSync); }
  Tracer::SetEnabled(true);
  { const Span on(SpanId::kFsSync); }
  // An exited thread's totals survive it.
  std::thread([] { const Span worker(SpanId::kDevSync); }).join();
  Tracer::SetEnabled(false);
  const std::vector<SpanRow> rows = Tracer::Collect();
  EXPECT_EQ(Find(rows, SpanId::kCount, SpanId::kFsSync).calls, 1u);
  EXPECT_EQ(Find(rows, SpanId::kCount, SpanId::kDevSync).calls, 1u);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::NestedSelfTime();
  perfbench::ParentlessFlusherSpan();
  perfbench::CollectSumsAndResets();
  perfbench::TracerRecordsOnlyWhenEnabled();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("span ledger: all checks passed\n");
  return 0;
}
