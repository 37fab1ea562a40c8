#include "rpc/frame.h"

#include <cstring>

#include "common/big_endian.h"

namespace juggler::rpc {

bool IsKnownFrameType(uint8_t value) {
  return value >= static_cast<uint8_t>(FrameType::kPing) &&
         value <= static_cast<uint8_t>(FrameType::kObserveReply);
}

void AppendFrame(FrameType type, uint64_t request_id, std::string_view payload,
                 std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  out->append(kFrameMagic, sizeof(kFrameMagic));
  out->push_back(static_cast<char>(kProtocolVersion));
  out->push_back(static_cast<char>(type));
  AppendU16(out, 0);  // Reserved.
  AppendU64(out, request_id);
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

void AppendFrame(const RpcFrame& frame, std::string* out) {
  AppendFrame(frame.type, frame.request_id, frame.payload, out);
}

std::string EncodeFrame(const RpcFrame& frame) {
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

void FrameDecoder::Append(const char* data, size_t size) {
  if (failed_) return;
  if (read_ > 0) {
    // Drop the frames consumed since the last Append in one move, not one
    // per frame.
    buffer_.erase(0, read_);
    read_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Result FrameDecoder::Fail(std::string detail) {
  failed_ = true;
  failed_detail_ = detail;
  buffer_.clear();  // Framing is lost; drop whatever was buffered.
  read_ = 0;
  Result result;
  result.state = State::kError;
  result.error_detail = std::move(detail);
  return result;
}

FrameDecoder::Result FrameDecoder::Next() {
  if (failed_) {
    Result result;
    result.state = State::kError;
    result.error_detail = failed_detail_;
    return result;
  }
  const size_t buffered = buffer_.size() - read_;
  const char* header = buffer_.data() + read_;
  if (buffered < kFrameHeaderBytes) {
    // Even a truncated header can be pre-checked: the magic must match from
    // byte 0, so a stream that opens with garbage fails before the rest of
    // the "header" ever arrives.
    const size_t have =
        buffered < sizeof(kFrameMagic) ? buffered : sizeof(kFrameMagic);
    if (std::memcmp(header, kFrameMagic, have) != 0) {
      return Fail("bad frame magic (not a JRPC stream)");
    }
    return Result{};  // kNeedMore
  }

  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Fail("bad frame magic (not a JRPC stream)");
  }
  const auto version = static_cast<uint8_t>(header[4]);
  if (version != kProtocolVersion) {
    return Fail("unsupported protocol version " + std::to_string(version));
  }
  const auto type = static_cast<uint8_t>(header[5]);
  if (!IsKnownFrameType(type)) {
    return Fail("unknown frame type " + std::to_string(type));
  }
  if (ReadU16(header + 6) != 0) {
    return Fail("reserved header bytes must be zero");
  }
  const uint64_t payload_len = ReadU32(header + 16);
  if (payload_len > limits_.max_payload_bytes) {
    // Checked from the header alone — before a single payload byte is
    // buffered — so an announced flood is rejected, not stored.
    return Fail("payload of " + std::to_string(payload_len) +
                " bytes exceeds limit of " +
                std::to_string(limits_.max_payload_bytes));
  }
  if (buffered < kFrameHeaderBytes + payload_len) {
    return Result{};  // kNeedMore
  }

  Result result;
  result.state = State::kReady;
  result.frame.type = static_cast<FrameType>(type);
  result.frame.request_id = ReadU64(header + 8);
  result.frame.payload.assign(header + kFrameHeaderBytes,
                              static_cast<size_t>(payload_len));
  read_ += kFrameHeaderBytes + static_cast<size_t>(payload_len);
  return result;
}

}  // namespace juggler::rpc
