// Forwarding decorators that time every call crossing a layer boundary:
// TracingDisk sits between a client (MinixFs, txn) and the LLD's
// ld::Disk interface, TracingDevice between the LLD and its BlockDevice.
// They exist only in traced rounds; untraced rounds wire the layers
// directly, so end-to-end numbers carry no decorator cost.
#pragma once

#include "blockdev/block_device.h"
#include "ld/disk.h"
#include "spans.h"

namespace perfbench {

class TracingDisk final : public aru::ld::Disk {
 public:
  explicit TracingDisk(aru::ld::Disk& inner) : inner_(inner) {}

  std::uint32_t block_size() const override { return inner_.block_size(); }
  std::uint64_t capacity_blocks() const override {
    return inner_.capacity_blocks();
  }
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }

  aru::Result<aru::ld::ListId> NewList(aru::ld::AruId aru) override {
    const Span span(SpanId::kLdNewList);
    return inner_.NewList(aru);
  }
  aru::Status DeleteList(aru::ld::ListId list, aru::ld::AruId aru) override {
    const Span span(SpanId::kLdDeleteList);
    return inner_.DeleteList(list, aru);
  }
  aru::Result<std::vector<aru::ld::BlockId>> ListBlocks(
      aru::ld::ListId list, aru::ld::AruId aru) override {
    const Span span(SpanId::kLdListBlocks);
    return inner_.ListBlocks(list, aru);
  }
  aru::Result<aru::ld::ListId> ListOf(aru::ld::BlockId block,
                                      aru::ld::AruId aru) override {
    const Span span(SpanId::kLdListOf);
    return inner_.ListOf(block, aru);
  }
  aru::Result<aru::ld::BlockId> NewBlock(aru::ld::ListId list,
                                         aru::ld::BlockId predecessor,
                                         aru::ld::AruId aru) override {
    const Span span(SpanId::kLdNewBlock);
    return inner_.NewBlock(list, predecessor, aru);
  }
  aru::Status DeleteBlock(aru::ld::BlockId block,
                          aru::ld::AruId aru) override {
    const Span span(SpanId::kLdDeleteBlock);
    return inner_.DeleteBlock(block, aru);
  }
  aru::Status MoveBlock(aru::ld::BlockId block, aru::ld::ListId to_list,
                        aru::ld::BlockId predecessor,
                        aru::ld::AruId aru) override {
    const Span span(SpanId::kLdMoveBlock);
    return inner_.MoveBlock(block, to_list, predecessor, aru);
  }
  aru::Status Write(aru::ld::BlockId block, aru::ByteSpan data,
                    aru::ld::AruId aru) override {
    const Span span(SpanId::kLdWrite);
    return inner_.Write(block, data, aru);
  }
  aru::Status Read(aru::ld::BlockId block, aru::MutableByteSpan out,
                   aru::ld::AruId aru) override {
    const Span span(SpanId::kLdRead);
    return inner_.Read(block, out, aru);
  }
  aru::Status ReadMany(std::span<const aru::ld::BlockId> blocks,
                       aru::MutableByteSpan out,
                       aru::ld::AruId aru) override {
    const Span span(SpanId::kLdReadMany);
    return inner_.ReadMany(blocks, out, aru);
  }
  aru::Result<aru::ld::AruId> BeginARU() override {
    const Span span(SpanId::kLdBeginAru);
    return inner_.BeginARU();
  }
  aru::Status EndARU(aru::ld::AruId aru) override {
    const Span span(SpanId::kLdEndAru);
    return inner_.EndARU(aru);
  }
  aru::Status AbortARU(aru::ld::AruId aru) override {
    const Span span(SpanId::kLdAbortAru);
    return inner_.AbortARU(aru);
  }
  aru::Status Flush() override {
    const Span span(SpanId::kLdFlush);
    return inner_.Flush();
  }

 private:
  aru::ld::Disk& inner_;
};

class TracingDevice final : public aru::BlockDevice {
 public:
  explicit TracingDevice(aru::BlockDevice& inner) : inner_(inner) {}

  std::uint32_t sector_size() const override { return inner_.sector_size(); }
  std::uint64_t sector_count() const override { return inner_.sector_count(); }

  aru::Status Read(std::uint64_t first_sector,
                   aru::MutableByteSpan out) override {
    const Span span(SpanId::kDevRead);
    return inner_.Read(first_sector, out);
  }
  aru::Status Write(std::uint64_t first_sector, aru::ByteSpan data) override {
    const Span span(SpanId::kDevWrite);
    return inner_.Write(first_sector, data);
  }
  aru::Status Sync() override {
    const Span span(SpanId::kDevSync);
    return inner_.Sync();
  }
  aru::DeviceStats stats() const override { return inner_.stats(); }

 private:
  aru::BlockDevice& inner_;
};

}  // namespace perfbench
