#ifndef JUGGLER_COMMON_BIG_ENDIAN_H_
#define JUGGLER_COMMON_BIG_ENDIAN_H_

#include <bit>
#include <cstdint>
#include <string>

namespace juggler {

/// \brief Big-endian (network order) integer and double codec shared by the
/// binary wire formats: JRPC frame headers (rpc/frame) and observation
/// batches (online/observation).
///
/// The Append* helpers push bytes onto a string; the Read* helpers read from
/// a pointer the caller has already bounds-checked. Doubles travel as the
/// big-endian bytes of their IEEE-754 bit pattern.

inline void AppendU16(std::string* out, uint16_t value) {
  out->push_back(static_cast<char>(value >> 8));
  out->push_back(static_cast<char>(value & 0xff));
}

inline void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

inline void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

inline void AppendF64(std::string* out, double value) {
  AppendU64(out, std::bit_cast<uint64_t>(value));
}

inline uint16_t ReadU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>((static_cast<uint16_t>(b[0]) << 8) | b[1]);
}

inline uint32_t ReadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value = (value << 8) | b[i];
  return value;
}

inline uint64_t ReadU64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value = (value << 8) | b[i];
  return value;
}

inline double ReadF64(const char* p) {
  return std::bit_cast<double>(ReadU64(p));
}

}  // namespace juggler

#endif  // JUGGLER_COMMON_BIG_ENDIAN_H_
