// fs_meta: one closed-loop client running a seeded PostMark-like mix
// over MinixFs (default Policy) on a RAM MemDisk with no added latency.
//
// Sizes: 512 directories of ~8 files each, 4096 files in all. Each
// directory is one block and the i-node table 64 blocks, so with the
// root's 8 blocks the meta-data working set is ~584 blocks, above
// MinixFs's 512-block meta-data cache. Files are 512 B - 10 KB (1-3 LD
// blocks, so the classic unlink runs predecessor searches): ~30 MB of
// live data on a 128 MB device, so the cleaner runs many passes per
// round yet always finds victims it can empty within its default
// 4-slot reserve. LLD options are the library defaults: synchronous
// seals, no read cache; the client's Sync (~3% of operations) is the
// only flush.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "blockdev/mem_disk.h"
#include "common.h"
#include "decorators.h"
#include "minixfs/check.h"
#include "minixfs/minix_fs.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kDeviceBytes = 128ull << 20;
constexpr std::uint32_t kDirs = 512;
constexpr std::uint32_t kFilesPerDir = 8;
constexpr std::uint64_t kMinFileBytes = 512;
constexpr std::uint64_t kMaxFileBytes = 10240;
constexpr std::uint32_t kOpsPerRound = 30000;

enum class OpKind : std::uint8_t { kCreate, kUnlink, kRewrite, kRead, kSync };

struct Op {
  OpKind kind = OpKind::kSync;
  std::uint32_t file = 0;  // index into Plan::paths
  std::uint64_t key = 0;   // content key (create, rewrite, read)
  std::uint64_t size = 0;
};

struct Plan {
  std::vector<std::string> dirs;
  std::vector<std::string> paths;  // every file the round ever names
  std::vector<Op> populate;        // set-up: creates with content
  std::vector<Op> ops;             // the measured mix
  std::vector<Op> expected;        // live files after `ops`, as kRead ops
};

std::string FilePath(std::uint32_t dir, std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/d%03u/f%07u", dir, index);
  return buf;
}

Plan MakePlan(std::uint64_t seed) {
  aru::Rng rng(seed);
  Plan plan;
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "/d%03u", d);
    plan.dirs.emplace_back(buf);
  }
  // Current (key, size) per file index; key 0 = not live.
  std::vector<Op> state;
  std::vector<std::uint32_t> live;
  auto create = [&](std::uint32_t dir) {
    const auto index = static_cast<std::uint32_t>(plan.paths.size());
    plan.paths.push_back(FilePath(dir, index));
    Op op{OpKind::kCreate, index, rng.Next() | 1,
          rng.Range(kMinFileBytes, kMaxFileBytes)};
    state.push_back(op);
    live.push_back(index);
    return op;
  };
  for (std::uint32_t i = 0; i < kDirs * kFilesPerDir; ++i) {
    plan.populate.push_back(create(i % kDirs));
  }
  for (std::uint32_t n = 0; n < kOpsPerRound; ++n) {
    const std::uint64_t roll = rng.Below(100);
    if (roll < 22 || live.empty()) {
      plan.ops.push_back(
          create(static_cast<std::uint32_t>(rng.Below(kDirs))));
      continue;
    }
    if (roll >= 97) {
      plan.ops.push_back(Op{OpKind::kSync, 0, 0, 0});
      continue;
    }
    const std::size_t pos = rng.Below(live.size());
    const std::uint32_t file = live[pos];
    Op& cur = state[file];
    if (roll < 44) {
      plan.ops.push_back(Op{OpKind::kUnlink, file, 0, 0});
      cur.key = 0;
      live[pos] = live.back();
      live.pop_back();
    } else if (roll < 69) {
      cur.key = rng.Next() | 1;
      plan.ops.push_back(Op{OpKind::kRewrite, file, cur.key, cur.size});
    } else {
      plan.ops.push_back(Op{OpKind::kRead, file, cur.key, cur.size});
    }
  }
  for (const std::uint32_t file : live) {
    plan.expected.push_back(
        Op{OpKind::kRead, file, state[file].key, state[file].size});
  }
  return plan;
}

// One round's stack. Traced rounds interpose the decorators; untraced
// rounds wire MinixFs → Lld → MemDisk directly.
struct Stack {
  std::unique_ptr<aru::MemDisk> mem;
  std::unique_ptr<TracingDevice> traced_device;
  std::unique_ptr<aru::lld::Lld> lld;
  std::unique_ptr<TracingDisk> traced_disk;
  std::unique_ptr<aru::minixfs::MinixFs> fs;
  aru::ld::Disk* disk = nullptr;
};

aru::Status Build(bool traced, Stack& s) {
  s.mem = std::make_unique<aru::MemDisk>(kDeviceBytes / 512);
  aru::BlockDevice* device = s.mem.get();
  if (traced) {
    s.traced_device = std::make_unique<TracingDevice>(*s.mem);
    device = s.traced_device.get();
  }
  const aru::lld::Options options;
  ARU_RETURN_IF_ERROR(aru::lld::Lld::Format(*device, options));
  ARU_ASSIGN_OR_RETURN(s.lld, aru::lld::Lld::Open(*device, options));
  s.disk = s.lld.get();
  if (traced) {
    s.traced_disk = std::make_unique<TracingDisk>(*s.lld);
    s.disk = s.traced_disk.get();
  }
  ARU_RETURN_IF_ERROR(aru::minixfs::MinixFs::Mkfs(*s.disk));
  ARU_ASSIGN_OR_RETURN(s.fs, aru::minixfs::MinixFs::Mount(*s.disk));
  return aru::Status::Ok();
}

aru::Status WriteWhole(aru::minixfs::MinixFs& fs, aru::minixfs::OpenFile& file,
                       aru::ByteSpan data) {
  aru::Status s;
  {
    const Span span(SpanId::kFsWriteAt);
    s = fs.WriteAt(file, 0, data);
  }
  if (!s.ok()) return s;
  const Span span(SpanId::kFsClose);
  return fs.Close(file);
}

class Client {
 public:
  Client(const Plan& plan, const ContentPool& pool, aru::minixfs::MinixFs& fs,
         RoundResult& round)
      : plan_(plan), pool_(pool), fs_(fs), round_(round) {}

  // Runs one generated op; returns the first failure.
  aru::Status Run(const Op& op) {
    const std::string& path = plan_.paths[op.file];
    switch (op.kind) {
      case OpKind::kCreate: {
        std::uint64_t start = NowNs();
        aru::Result<aru::minixfs::InodeNum> inode = aru::NotFoundError("");
        {
          const Span span(SpanId::kFsCreate);
          inode = fs_.Create(path);
        }
        Sample("meta", start);
        if (!inode.ok()) return inode.status();
        start = NowNs();
        aru::Result<aru::minixfs::OpenFile> file = aru::NotFoundError("");
        {
          const Span span(SpanId::kFsOpen);
          file = fs_.OpenInode(*inode);
        }
        aru::Status s = file.status();
        if (file.ok()) s = WriteWhole(fs_, *file, Content(op));
        Sample("write", start);
        round_.payload_bytes += op.size;
        return s;
      }
      case OpKind::kUnlink: {
        const std::uint64_t start = NowNs();
        aru::Status s;
        {
          const Span span(SpanId::kFsUnlink);
          s = fs_.Unlink(path);
        }
        Sample("meta", start);
        return s;
      }
      case OpKind::kRewrite: {
        const std::uint64_t start = NowNs();
        aru::Result<aru::minixfs::OpenFile> file = aru::NotFoundError("");
        {
          const Span span(SpanId::kFsOpen);
          file = fs_.Open(path);
        }
        aru::Status s = file.status();
        if (file.ok()) s = WriteWhole(fs_, *file, Content(op));
        Sample("write", start);
        round_.payload_bytes += op.size;
        return s;
      }
      case OpKind::kRead: {
        buffer_.resize(op.size);
        const std::uint64_t start = NowNs();
        aru::Result<aru::minixfs::OpenFile> file = aru::NotFoundError("");
        {
          const Span span(SpanId::kFsOpen);
          file = fs_.Open(path);
        }
        aru::Status s = file.status();
        if (file.ok()) {
          const Span span(SpanId::kFsReadAt);
          s = fs_.ReadAt(*file, 0, buffer_);
        }
        Sample("read", start);
        if (s.ok() && !Matches(op)) {
          return aru::CorruptionError("read returned wrong bytes: " + path);
        }
        return s;
      }
      case OpKind::kSync: {
        const std::uint64_t start = NowNs();
        aru::Status s;
        {
          const Span span(SpanId::kFsSync);
          s = fs_.Sync();
        }
        Sample("sync", start);
        return s;
      }
    }
    return aru::Status::Ok();
  }

  // Untimed: the file holds exactly the bytes the plan expects.
  aru::Status Verify(const Op& op) {
    const std::string& path = plan_.paths[op.file];
    aru::Result<aru::Bytes> data = fs_.ReadFile(path);
    if (!data.ok()) return data.status();
    buffer_ = std::move(*data);
    if (!Matches(op)) {
      return aru::CorruptionError("live file holds wrong bytes: " + path);
    }
    return aru::Status::Ok();
  }

 private:
  aru::ByteSpan Content(const Op& op) const {
    return pool_.Slice(op.key, op.size);
  }
  bool Matches(const Op& op) const {
    const aru::ByteSpan want = Content(op);
    return buffer_.size() == want.size() &&
           std::equal(buffer_.begin(), buffer_.end(), want.begin());
  }
  void Sample(const char* cls, std::uint64_t start_ns) {
    round_.samples_ns[cls].push_back(NowNs() - start_ns);
    ++round_.ops;
  }

  const Plan& plan_;
  const ContentPool& pool_;
  aru::minixfs::MinixFs& fs_;
  RoundResult& round_;
  aru::Bytes buffer_;
};


RoundResult FsRound(const Plan& plan, const ContentPool& pool, bool traced,
                    RunResult& run) {
  RoundResult round;
  const std::uint64_t setup_start = NowNs();
  Stack s;
  if (aru::Status st = Build(traced, s); !st.ok()) {
    run.Fail("fs_meta set-up: " + st.ToString());
    return round;
  }
  {
    RoundResult scratch;  // set-up writes are not the round's samples
    Client setup(plan, pool, *s.fs, scratch);
    for (const std::string& dir : plan.dirs) {
      if (auto made = s.fs->Mkdir(dir); !made.ok()) {
        run.Fail("fs_meta mkdir: " + made.status().ToString());
        return round;
      }
    }
    for (const Op& op : plan.populate) {
      if (aru::Status st = setup.Run(op); !st.ok()) {
        run.Fail("fs_meta populate: " + st.ToString());
        return round;
      }
    }
    if (aru::Status st = s.fs->Sync(); !st.ok()) {
      run.Fail("fs_meta populate sync: " + st.ToString());
      return round;
    }
  }
  round.setup_s = SecondsSince(setup_start);

  const Probe before = TakeProbe(*s.lld, *s.mem);
  Client client(plan, pool, *s.fs, round);
  TracedSection section(traced);
  const std::uint64_t body_start = NowNs();
  for (const Op& op : plan.ops) {
    if (aru::Status st = client.Run(op); !st.ok()) {
      ++round.failed;
      run.Fail("fs_meta " + plan.paths[op.file] + ": " + st.ToString());
    }
  }
  round.wall_s = round.timed_s = SecondsSince(body_start);
  round.spans = section.Finish();
  AddDelta(before, TakeProbe(*s.lld, *s.mem), round);
  round.device_bytes_written =
      static_cast<std::uint64_t>(round.counters["dev.bytes_written"]);
  round.recoveries.push_back(s.lld->recovery_report());

  // Verification: fsck-clean, and every live file holds its bytes.
  auto report = aru::minixfs::CheckFileSystem(*s.lld);
  if (!report.ok()) {
    run.Fail("fs_meta fsck: " + report.status().ToString());
  } else if (!report->clean()) {
    run.Fail("fs_meta fsck: " + report->problems.front());
  } else if (report->files != plan.expected.size()) {
    run.Fail("fs_meta fsck: " + std::to_string(report->files) +
                  " files, expected " + std::to_string(plan.expected.size()));
  }
  for (const Op& op : plan.expected) {
    if (aru::Status st = client.Verify(op); !st.ok()) {
      run.Fail("fs_meta verify: " + st.ToString());
      break;
    }
  }
  return round;
}

}  // namespace

RunResult RunFsMeta(const Args& args) {
  const Plan plan = MakePlan(args.seed);
  const ContentPool pool(args.seed);
  return RunRounds(args, [&](bool traced, RunResult& run) {
    return FsRound(plan, pool, traced, run);
  });
}

}  // namespace perfbench
