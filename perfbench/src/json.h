// Minimal streaming JSON writer for the binary's raw output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  // One entry per open container: true until its first element.
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
