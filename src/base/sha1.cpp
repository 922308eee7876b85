#include "base/sha1.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace scioto {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

template <typename T>
inline T to_big_endian(T x) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 4) {
      return __builtin_bswap32(x);
    } else {
      return __builtin_bswap64(x);
    }
  }
  return x;
}

#if defined(__x86_64__)

// The SHA-NI compress follows Intel's SHA extensions reference: ABCD in
// one register (A in the top lane), E in the top lane of another, and 20
// groups of four rounds. Group g consumes W[4g..4g+3] from m[g % 4] and,
// overlapped with its rounds, works that vector into the schedule of the
// groups after it: sha1msg1 starts group g+3's words, the xor adds the
// W[t-8] term to group g+2's, sha1msg2 finishes group g+1's.
template <int G>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_group(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4]) {
  __m128i& e_in = e[G % 2];
  if constexpr (G == 0) {
    e_in = _mm_add_epi32(e_in, m[0]);
  } else {
    e_in = _mm_sha1nexte_epu32(e_in, m[G % 4]);  // rotl(prev A, 30) + W
  }
  e[(G + 1) % 2] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, G / 5);
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  }
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[G % 4]);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[G % 4]);
  }
}

template <int... G>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_rounds(
    std::integer_sequence<int, G...>, __m128i& abcd, __m128i (&e)[2],
    __m128i (&m)[4]) {
  (sha_ni_group<G>(abcd, e, m), ...);
}

[[gnu::target("sha,sse4.1")]] void compress_sha_ni(Sha1::State& state,
                                                    const std::uint8_t* block) {
  // Reverses all 16 bytes: big-endian words, W[4g] in the top lane.
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i m[4];
  for (int i = 0; i < 4; ++i) {
    m[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        reverse);
  }
  const __m128i abcd_in = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  const __m128i e_start = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  __m128i abcd = abcd_in;
  __m128i e[2] = {e_start, _mm_setzero_si128()};
  sha_ni_rounds(std::make_integer_sequence<int, 20>{}, abcd, e, m);
  // e[0] holds the ABCD that entered the last group; its A gives the new E.
  const __m128i e_out = _mm_sha1nexte_epu32(e[0], e_start);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e_out, 3));
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA) != 0;
}

#endif  // __x86_64__

struct Compress {
  void (*fn)(Sha1::State&, const std::uint8_t*);
  const char* name;
};

Compress select_compress() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) {
    return {&compress_sha_ni, "sha-ni"};
  }
#endif
  return {&Sha1::compress_portable, "portable"};
}

/// Chosen on first use, so hashing from another file's static
/// initializer still finds it set.
const Compress& selected_compress() {
  static const Compress c = select_compress();
  return c;
}

}  // namespace

void Sha1::compress(State& state, const std::uint8_t* block) {
  selected_compress().fn(state, block);
}

const char* Sha1::compress_name() { return selected_compress().name; }

void Sha1::compress_portable(State& state, const std::uint8_t* block) {
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
  // Length and digest go out one byte-swapped word at a time.
  const std::uint64_t bit_len = to_big_endian(total_bytes_ * 8);
  std::memcpy(block + 56, &bit_len, 8);
  compress(state_, block);

  Digest d;
  for (int i = 0; i < 5; ++i) {
    const std::uint32_t word = to_big_endian(state_[i]);
    std::memcpy(d.data() + 4 * i, &word, 4);
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
