#include "wire/wire.hpp"

namespace loom::wire {

const char* to_string(Payload p) {
  switch (p) {
    case Payload::WorkerRequest: return "WorkerRequest";
    case Payload::WorkerPartial: return "WorkerPartial";
    case Payload::WorkerDone: return "WorkerDone";
    case Payload::WorkerError: return "WorkerError";
  }
  return "?";
}

std::string DecodeError::to_string() const {
  return "wire: byte " + std::to_string(offset) + ": " + message;
}

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::put_string(std::string_view s) {
  put_u64(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void Encoder::put_bits(const std::vector<bool>& bits) {
  put_u64(bits.size());
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (const bool b : bits) {
    if (b) word |= std::uint64_t{1} << filled;
    if (++filled == 64) {
      put_u64(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled != 0) put_u64(word);
}

void Decoder::fail_at(std::size_t offset, std::string message) {
  if (failed_) return;  // the first failure is the diagnostic that matters
  failed_ = true;
  error_.offset = offset;
  error_.message = std::move(message);
}

const std::uint8_t* Decoder::take(std::size_t n, const char* what) {
  if (failed_) return nullptr;
  if (size_ - offset_ < n) {
    fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
         " bytes, have " + std::to_string(size_ - offset_) + ")");
    return nullptr;
  }
  const std::uint8_t* p = data_ + offset_;
  offset_ += n;
  return p;
}

std::uint8_t Decoder::u8() {
  const std::uint8_t* p = take(1, "u8");
  return p == nullptr ? 0 : *p;
}

std::uint32_t Decoder::u32() {
  const std::uint8_t* p = take(4, "u32");
  if (p == nullptr) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t Decoder::u64() {
  const std::uint8_t* p = take(8, "u64");
  if (p == nullptr) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool Decoder::boolean() {
  const std::size_t at = offset_;
  const std::uint8_t v = u8();
  if (v > 1) {
    fail_at(at, "bad boolean (want 0 or 1, got " + std::to_string(v) + ")");
    return false;
  }
  return v != 0;
}

void Decoder::string_into(std::string& out) {
  const std::size_t at = offset_;
  const std::uint64_t n = u64();
  if (failed_) return;
  if (n > size_ - offset_) {
    fail_at(at, "string length " + std::to_string(n) + " overruns the " +
                    std::to_string(size_ - offset_) + " bytes left");
    return;
  }
  out.assign(reinterpret_cast<const char*>(data_ + offset_),
             static_cast<std::size_t>(n));
  offset_ += static_cast<std::size_t>(n);
}

void Decoder::bits_into(std::vector<bool>& out) {
  const std::size_t at = offset_;
  const std::uint64_t n = u64();
  if (failed_) return;
  const std::uint64_t words_needed = n / 64 + (n % 64 != 0 ? 1 : 0);
  if (words_needed > (size_ - offset_) / 8) {
    fail_at(at, "bit vector of " + std::to_string(n) +
                    " bits overruns the payload");
    return;
  }
  if (out.size() != n) out.assign(static_cast<std::size_t>(n), false);
  std::uint64_t word = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::size_t bit = i % 64;
    if (bit == 0) word = u64();
    out[static_cast<std::size_t>(i)] = (word >> bit) & 1;
  }
}

std::uint64_t Decoder::count(std::uint64_t min_bytes_each, const char* what) {
  const std::size_t at = offset_;
  const std::uint64_t n = u64();
  if (failed_) return 0;
  if (min_bytes_each != 0 && n > remaining() / min_bytes_each) {
    fail_at(at, std::string(what) + " count " + std::to_string(n) +
                    " overruns the payload (" + std::to_string(remaining()) +
                    " bytes left)");
    return 0;
  }
  return n;
}

void write_frame(std::vector<std::uint8_t>& out, Payload tag,
                 const Encoder& payload) {
  // The header goes straight into `out` (little-endian, like Encoder), so
  // a frame costs at most the one growth of `out` itself.
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  const auto put_le = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put_le(kMagic, 4);
  put_le(kWireVersion, 1);
  put_le(static_cast<std::uint8_t>(tag), 1);
  put_le(0, 2);  // reserved
  put_le(payload.size(), 8);
  out.insert(out.end(), payload.bytes().begin(), payload.bytes().end());
}

bool parse_frame_header(const std::uint8_t* data, std::size_t size,
                        FrameHeader& header, DecodeError& err) {
  Decoder d(data, size);
  const std::uint32_t magic = d.u32();
  if (d.ok() && magic != kMagic) {
    d.fail_at(0, "bad magic (not a LOOM wire frame)");
  }
  const std::uint8_t version = d.u8();
  if (d.ok() && version != kWireVersion) {
    d.fail_at(4, "wire format version " + std::to_string(version) +
                     ", this build reads version " +
                     std::to_string(kWireVersion));
  }
  const std::uint8_t tag = d.u8();
  if (d.ok() && (tag < static_cast<std::uint8_t>(Payload::WorkerRequest) ||
                 tag > static_cast<std::uint8_t>(Payload::WorkerError))) {
    d.fail_at(5, "unknown payload tag " + std::to_string(tag));
  }
  const std::uint8_t r0 = d.u8();
  const std::uint8_t r1 = d.u8();
  if (d.ok() && (r0 != 0 || r1 != 0)) {
    d.fail_at(6, "nonzero reserved header bytes");
  }
  const std::uint64_t length = d.u64();
  if (d.ok() && length > kMaxFrameBytes) {
    d.fail_at(8, "oversized payload length " + std::to_string(length) +
                     " (limit " + std::to_string(kMaxFrameBytes) + ")");
  }
  if (!d.ok()) {
    err = d.error();
    return false;
  }
  header.tag = static_cast<Payload>(tag);
  header.length = length;
  return true;
}

bool parse_frame(const std::uint8_t* data, std::size_t size, Frame& frame,
                 std::size_t& consumed, DecodeError& err) {
  FrameHeader header;
  if (!parse_frame_header(data, size, header, err)) return false;
  if (header.length > size - kFrameHeaderBytes) {
    err.offset = 8;
    err.message = "payload length " + std::to_string(header.length) +
                  " overruns the " + std::to_string(size - kFrameHeaderBytes) +
                  " bytes that follow the header";
    return false;
  }
  frame.tag = header.tag;
  frame.data = data + kFrameHeaderBytes;
  frame.size = static_cast<std::size_t>(header.length);
  consumed = kFrameHeaderBytes + frame.size;
  return true;
}

}  // namespace loom::wire
