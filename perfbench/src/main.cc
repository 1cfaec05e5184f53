// perfbench: runs one workload and writes its raw measurements
// (per-round samples, counter deltas, span ledgers) as JSON. run.py
// turns them into the benchmark's metrics.
//
//   perfbench --workload fs_meta|txn_commit|recovery --seed N
//             --seconds S --trace 0|1 --out FILE
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "json.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out.empty();
}

void WriteRound(const RoundResult& r, JsonWriter& w) {
  w.BeginObject();
  w.Key("traced").Bool(r.traced);
  w.Key("setup_s").Double(r.setup_s);
  w.Key("timed_s").Double(r.timed_s);
  w.Key("wall_s").Double(r.wall_s);
  w.Key("units").Uint(r.units);
  w.Key("ops").Uint(r.ops);
  w.Key("failed").Uint(r.failed);
  w.Key("retries").Uint(r.retries);
  w.Key("payload_bytes").Uint(r.payload_bytes);
  w.Key("device_bytes_written").Uint(r.device_bytes_written);
  w.Key("samples_ns").BeginObject();
  for (const auto& [cls, samples] : r.samples_ns) {
    w.Key(cls).BeginArray();
    for (const std::uint64_t ns : samples) w.Uint(ns);
    w.EndArray();
  }
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : r.counters) w.Key(name).Double(value);
  w.EndObject();
  w.Key("hists").BeginObject();
  for (const auto& [name, buckets] : r.hists) {
    w.Key(name).BeginArray();
    for (const auto& [bound, count] : buckets) {
      w.BeginArray().Uint(bound).Uint(count).EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  w.Key("recoveries").BeginArray();
  for (const aru::lld::RecoveryReport& rep : r.recoveries) {
    w.BeginObject();
    w.Key("checkpoint_load_us").Uint(rep.checkpoint_load_us);
    w.Key("summary_scan_us").Uint(rep.summary_scan_us);
    w.Key("replay_us").Uint(rep.replay_us);
    w.Key("orphan_reclaim_us").Uint(rep.orphan_reclaim_us);
    w.Key("checkpoint_us").Uint(rep.checkpoint_us);
    w.Key("records_replayed").Uint(rep.records_replayed);
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans").BeginArray();
  for (const SpanRow& row : r.spans) {
    w.BeginObject();
    w.Key("parent").String(SpanName(row.parent));
    w.Key("name").String(SpanName(row.id));
    w.Key("calls").Uint(row.calls);
    w.Key("total_ns").Uint(row.total_ns);
    w.Key("self_ns").Uint(row.self_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE\n";
    return 2;
  }
  RunResult run;
  if (args.workload == "fs_meta") {
    run = RunFsMeta(args);
  } else if (args.workload == "txn_commit") {
    run = RunTxnCommit(args);
  } else if (args.workload == "recovery") {
    run = RunRecovery(args);
  } else {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").Uint(args.seed);
  w.Key("trace").Bool(args.trace);
  w.Key("peak_rss_kb").Uint(static_cast<std::uint64_t>(usage.ru_maxrss));
  w.Key("errors").BeginArray();
  for (const std::string& e : run.errors) w.String(e);
  w.EndArray();
  w.Key("rounds").BeginArray();
  for (const RoundResult& r : run.rounds) WriteRound(r, w);
  w.EndArray();
  w.EndObject();

  std::ofstream out(args.out, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  if (!out.good()) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  for (const std::string& e : run.errors) {
    std::cerr << "check failed: " << e << "\n";
  }
  return 0;
}
