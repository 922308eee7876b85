#include "base/sha1.hpp"

#include <algorithm>
#include <cstring>

namespace scioto {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

}  // namespace

void Sha1::compress(State& state, const std::uint8_t* block) {
  // Rolling 16-word schedule: W[t] for t >= 16 overwrites W[t - 16].
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = load_be32(block + 4 * t);
  }
  auto word = [&w](int t) {
    if (t >= 16) {
      w[t & 15] = rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^
                           w[(t + 2) & 15] ^ w[t & 15],
                       1);
    }
    return w[t & 15];
  };
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
  auto step = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wt) {
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  };
  // Ch(b,c,d) = (b & c) | (~b & d) and Maj(b,c,d) in fewer operations.
#pragma GCC unroll 20
  for (int t = 0; t < 20; ++t) {
    step(d ^ (b & (c ^ d)), 0x5A827999u, word(t));
  }
#pragma GCC unroll 20
  for (int t = 20; t < 40; ++t) {
    step(b ^ c ^ d, 0x6ED9EBA1u, word(t));
  }
#pragma GCC unroll 20
  for (int t = 40; t < 60; ++t) {
    step((b & c) | (d & (b | c)), 0x8F1BBCDCu, word(t));
  }
#pragma GCC unroll 20
  for (int t = 60; t < 80; ++t) {
    step(b ^ c ^ d, 0xCA62C1D6u, word(t));
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;

  if (buffered_ > 0) {
    std::size_t take = std::min(len, kBlockBytes - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == kBlockBytes) {
      compress(state_, buffer_.data());
      buffered_ = 0;
    }
  }
  while (len >= kBlockBytes) {
    compress(state_, p);
    p += kBlockBytes;
    len -= kBlockBytes;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffered_ = len;
  }
}

Sha1::Digest Sha1::finish() {
  // Pad in place: 0x80, zeros, then the 64-bit big-endian bit length in
  // bytes 56..63, which spill into one more block past 55 buffered bytes.
  std::uint8_t* block = buffer_.data();
  block[buffered_] = 0x80;
  std::memset(block + buffered_ + 1, 0, kBlockBytes - buffered_ - 1);
  if (buffered_ >= 56) {
    compress(state_, block);
    std::memset(block, 0, 56);
  }
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, block);

  Digest d;
  for (int i = 0; i < 5; ++i) {
    d[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    d[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Sha1::Digest Sha1::hash(const void* data, std::size_t len) {
  Sha1 h;
  h.update(data, len);
  return h.finish();
}

std::string Sha1::hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(kDigestBytes * 2);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

}  // namespace scioto
