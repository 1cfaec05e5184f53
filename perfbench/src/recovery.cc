// recovery: restart time of a crashed MinixFS image.
//
// Set-up builds the crash: a seeded population (16 directories x 20
// files of 512 B - 10 KB) on a 32 MB MemDisk, Checkpoint(), then a tail
// of 240 creates/rewrites/unlinks synced every 8 operations and never
// checkpointed, copied with MemDisk::CopyImage without Close. Each
// timed iteration recovers a fresh copy of that image (CrashDevice
// undoes the previous restart's writes) — Lld::Open
// (checkpoint load, summary scan, replay, orphan reclaim, bounding
// checkpoint) followed by MinixFs::Mount — with 100 us added to every
// device read. The copy and the verification (fsck plus every synced
// file's bytes) are not timed. LLD options are the library defaults
// except a single recovery scan thread (see RecoveryOptions).
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "blockdev/mem_disk.h"
#include "common.h"
#include "decorators.h"
#include "minixfs/check.h"
#include "minixfs/minix_fs.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kDeviceBytes = 32ull << 20;
constexpr std::uint32_t kDirs = 16;
constexpr std::uint32_t kFilesPerDir = 20;
constexpr std::uint32_t kTailOps = 240;
constexpr std::uint32_t kSyncEvery = 8;
constexpr std::uint64_t kMinFileBytes = 512;
constexpr std::uint64_t kMaxFileBytes = 10240;
constexpr std::uint64_t kReadLatencyUs = 100;
constexpr double kRoundSeconds = 2.0;

struct File {
  std::string path;
  std::uint64_t key = 0;  // 0: not live
  std::uint64_t size = 0;
};

struct CrashImage {
  aru::Bytes image;
  std::vector<File> files;
  std::uint64_t live_files = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t device_bytes_written = 0;
};

aru::Status WriteFile(aru::minixfs::MinixFs& fs, const ContentPool& pool,
                      const File& f) {
  ARU_ASSIGN_OR_RETURN(auto file, fs.Open(f.path));
  ARU_RETURN_IF_ERROR(fs.WriteAt(file, 0, pool.Slice(f.key, f.size)));
  return fs.Close(file);
}

aru::Status BuildCrash(std::uint64_t seed, const ContentPool& pool,
                       CrashImage& crash) {
  aru::Rng rng(seed);
  aru::MemDisk mem(kDeviceBytes / 512);
  const aru::lld::Options options;
  ARU_RETURN_IF_ERROR(aru::lld::Lld::Format(mem, options));
  ARU_ASSIGN_OR_RETURN(auto lld, aru::lld::Lld::Open(mem, options));
  ARU_RETURN_IF_ERROR(aru::minixfs::MinixFs::Mkfs(*lld));
  ARU_ASSIGN_OR_RETURN(auto fs, aru::minixfs::MinixFs::Mount(*lld));
  const aru::DeviceStats start = mem.stats();

  std::vector<std::size_t> live;
  auto create = [&]() -> aru::Status {
    File f;
    const auto dir = static_cast<std::uint32_t>(rng.Below(kDirs));
    f.path = "/d" + std::to_string(dir) + "/f" +
             std::to_string(crash.files.size());
    f.key = rng.Next() | 1;
    f.size = rng.Range(kMinFileBytes, kMaxFileBytes);
    ARU_RETURN_IF_ERROR(fs->Create(f.path).status());
    ARU_RETURN_IF_ERROR(WriteFile(*fs, pool, f));
    crash.payload_bytes += f.size;
    live.push_back(crash.files.size());
    crash.files.push_back(std::move(f));
    return aru::Status::Ok();
  };
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    ARU_RETURN_IF_ERROR(fs->Mkdir("/d" + std::to_string(d)).status());
  }
  for (std::uint32_t i = 0; i < kDirs * kFilesPerDir; ++i) {
    ARU_RETURN_IF_ERROR(create());
  }
  ARU_RETURN_IF_ERROR(fs->Sync());
  ARU_RETURN_IF_ERROR(lld->Checkpoint());

  for (std::uint32_t n = 1; n <= kTailOps; ++n) {
    const std::uint64_t roll = rng.Below(3);
    if (roll == 0 || live.empty()) {
      ARU_RETURN_IF_ERROR(create());
    } else {
      const std::size_t pos = rng.Below(live.size());
      File& f = crash.files[live[pos]];
      if (roll == 1) {
        ARU_RETURN_IF_ERROR(fs->Unlink(f.path));
        f.key = 0;
        live[pos] = live.back();
        live.pop_back();
      } else {
        f.key = rng.Next() | 1;
        ARU_RETURN_IF_ERROR(WriteFile(*fs, pool, f));
        crash.payload_bytes += f.size;
      }
    }
    if (n % kSyncEvery == 0) ARU_RETURN_IF_ERROR(fs->Sync());
  }
  ARU_RETURN_IF_ERROR(fs->Sync());
  crash.device_bytes_written =
      (mem.stats().sectors_written - start.sectors_written) * 512;
  crash.live_files = live.size();
  // The crash: the image as it stands, without Close.
  crash.image = mem.CopyImage();
  return aru::Status::Ok();
}

aru::Status Verify(aru::lld::Lld& lld, aru::minixfs::MinixFs& fs,
                   const ContentPool& pool, const CrashImage& crash) {
  ARU_ASSIGN_OR_RETURN(const auto report, aru::minixfs::CheckFileSystem(lld));
  if (!report.clean()) {
    return aru::CorruptionError("fsck: " + report.problems.front());
  }
  if (report.files != crash.live_files) {
    return aru::CorruptionError("fsck found " + std::to_string(report.files) +
                                " files, expected " +
                                std::to_string(crash.live_files));
  }
  for (const File& f : crash.files) {
    if (f.key == 0) continue;
    ARU_ASSIGN_OR_RETURN(const aru::Bytes data, fs.ReadFile(f.path));
    const aru::ByteSpan want = pool.Slice(f.key, f.size);
    if (data.size() != want.size() ||
        !std::equal(data.begin(), data.end(), want.begin())) {
      return aru::CorruptionError("synced file lost its bytes: " + f.path);
    }
  }
  return aru::Status::Ok();
}


// The device a round restarts from, holding the crash image. While
// `slow` is set, every read takes kReadLatencyUs; the wait spins on the
// steady clock, because a sleep's wake-up delay on a busy host is as
// long as the latency and far less steady. Writes are logged, so
// Restore() makes the device a fresh copy of the image again by
// rewriting only what the last restart wrote. Copying the whole image
// instead costs a restart's worth of time: over 20 s runs, a new
// MemDisk::FromImage per restart cut restarts from ~1300 to ~260, and
// rewriting all 32 MB in place cut them to ~900 and widened the
// ten-seed p99 spread from 0.12 to 0.21-0.25.
class CrashDevice final : public aru::BlockDevice {
 public:
  explicit CrashDevice(const aru::Bytes& image)
      : image_(image), mem_(aru::MemDisk::FromImage(image)) {}

  void set_slow(bool slow) { slow_.store(slow, std::memory_order_relaxed); }
  const aru::MemDisk& mem() const { return *mem_; }

  aru::Status Restore() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [first, bytes] : written_) {
      ARU_RETURN_IF_ERROR(mem_->Write(
          first, aru::ByteSpan(image_).subspan(first * sector_size(), bytes)));
    }
    written_.clear();
    return aru::Status::Ok();
  }

  std::uint32_t sector_size() const override { return mem_->sector_size(); }
  std::uint64_t sector_count() const override { return mem_->sector_count(); }

  aru::Status Read(std::uint64_t first_sector,
                   aru::MutableByteSpan out) override {
    const std::uint64_t deadline = NowNs() + kReadLatencyUs * 1000;
    aru::Status s = mem_->Read(first_sector, out);
    if (slow_.load(std::memory_order_relaxed)) {
      while (NowNs() < deadline) {
      }
    }
    return s;
  }
  aru::Status Write(std::uint64_t first_sector, aru::ByteSpan data) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      written_.emplace_back(first_sector, data.size());
    }
    return mem_->Write(first_sector, data);
  }
  aru::Status Sync() override { return mem_->Sync(); }
  aru::DeviceStats stats() const override { return mem_->stats(); }

 private:
  const aru::Bytes& image_;
  std::unique_ptr<aru::MemDisk> mem_;
  std::atomic<bool> slow_{false};
  std::mutex mu_;
  // (first sector, bytes) of every write since the last Restore().
  std::vector<std::pair<std::uint64_t, std::size_t>> written_;
};

aru::lld::Options RecoveryOptions() {
  aru::lld::Options options;
  // One scan thread. The default fans the summary scan out over every
  // hardware thread; on a shared 4-vCPU host that scan needs all four
  // at once, and its restart time swings with the neighbours' load.
  options.recovery_threads = 1;
  return options;
}

// One restart of a fresh copy; appends its sample and counters.
void Restart(const CrashImage& crash, const ContentPool& pool,
             CrashDevice& dev, aru::BlockDevice& top, bool traced,
             RoundResult& round, RunResult& run) {
  if (aru::Status st = dev.Restore(); !st.ok()) {
    run.Fail("recovery copy: " + st.ToString());
    return;
  }
  Probe before;
  before.dev = dev.mem().stats();
  std::unique_ptr<aru::lld::Lld> lld;
  std::unique_ptr<TracingDisk> traced_disk;
  std::unique_ptr<aru::minixfs::MinixFs> fs;
  aru::Status status;

  dev.set_slow(true);
  const std::uint64_t start = NowNs();
  {
    const Span span(SpanId::kLldOpen);
    auto opened = aru::lld::Lld::Open(top, RecoveryOptions());
    if (opened.ok()) {
      lld = std::move(*opened);
    } else {
      status = opened.status();
    }
  }
  if (status.ok()) {
    aru::ld::Disk* disk = lld.get();
    if (traced) {
      traced_disk = std::make_unique<TracingDisk>(*lld);
      disk = traced_disk.get();
    }
    const Span span(SpanId::kFsMount);
    auto mounted = aru::minixfs::MinixFs::Mount(*disk);
    if (mounted.ok()) {
      fs = std::move(*mounted);
    } else {
      status = mounted.status();
    }
  }
  const std::uint64_t elapsed = NowNs() - start;
  dev.set_slow(false);
  ++round.ops;
  if (!status.ok()) {
    ++round.failed;
    run.Fail("recovery restart: " + status.ToString());
    return;
  }
  round.samples_ns["restart"].push_back(elapsed);
  round.timed_s += static_cast<double>(elapsed) * 1e-9;
  AddDelta(before, TakeProbe(*lld, dev.mem()), round);
  round.recoveries.push_back(lld->recovery_report());

  const bool was_tracing = Tracer::enabled();
  Tracer::SetEnabled(false);
  if (aru::Status st = Verify(*lld, *fs, pool, crash); !st.ok()) {
    run.Fail("recovery verify: " + st.ToString());
  }
  Tracer::SetEnabled(was_tracing);
}

RoundResult RecoveryRound(std::uint64_t seed, const ContentPool& pool,
                          double seconds, bool traced, RunResult& run) {
  RoundResult round;
  const std::uint64_t setup_start = NowNs();
  CrashImage crash;
  if (aru::Status st = BuildCrash(seed, pool, crash); !st.ok()) {
    run.Fail("recovery set-up: " + st.ToString());
    return round;
  }
  CrashDevice dev(crash.image);
  round.setup_s = SecondsSince(setup_start);
  round.payload_bytes = crash.payload_bytes;
  round.device_bytes_written = crash.device_bytes_written;

  TracingDevice traced_device(dev);
  aru::BlockDevice& top =
      traced ? static_cast<aru::BlockDevice&>(traced_device) : dev;
  TracedSection section(traced);
  const std::uint64_t body_start = NowNs();
  round.units = 0;
  while (round.units == 0 || SecondsSince(body_start) < seconds) {
    Restart(crash, pool, dev, top, traced, round, run);
    ++round.units;
    if (!run.errors.empty()) break;
  }
  round.wall_s = SecondsSince(body_start);
  round.spans = section.Finish();
  return round;
}

}  // namespace

RunResult RunRecovery(const Args& args) {
  const ContentPool pool(args.seed);
  // Rounds of at most kRoundSeconds, so a run sets up several times.
  const double slice =
      std::min(kRoundSeconds, args.seconds / kMinRounds);
  return RunRounds(args, [&](bool traced, RunResult& run) {
    return RecoveryRound(args.seed, pool, slice, traced, run);
  });
}

}  // namespace perfbench
