// SHA-1 message digest (RFC 3174), implemented from scratch.
//
// Used by the UTS benchmark as a splittable deterministic RNG: each tree
// node is described by a 20-byte digest, and child i's state is
// SHA1(parent_state || be32(i)) -- a 24-byte message, so every UTS hash
// is a single padded 64-byte block and costs one compress(). The
// implementation is a dependency-free rendition of FIPS 180-1.
//
// Two block compresses exist. On x86-64 CPUs whose CPUID reports the SHA
// extensions (and SSE4.1), compress() runs on the SHA-NI instructions; it
// is compiled with a function target attribute, so the binary needs no
// ISA flag and still runs where they are missing. Everywhere else,
// aarch64 included, compress() is compress_portable(). The choice is made
// once, on first use. Both produce the same state bit for bit, and the
// tests hold the hardware path to the portable one as their reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace scioto {

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(buf, len);
///   Sha1::Digest d = h.finish();
class Sha1 {
 public:
  static constexpr std::size_t kDigestBytes = 20;
  static constexpr std::size_t kBlockBytes = 64;
  using Digest = std::array<std::uint8_t, kDigestBytes>;
  /// The chaining value H0..H4.
  using State = std::array<std::uint32_t, 5>;

  Sha1() { reset(); }

  /// Re-initialize to the empty-message state.
  void reset();

  /// Absorb `len` bytes.
  void update(const void* data, std::size_t len);

  /// Finalize and return the digest. The hasher must be reset() before
  /// further use.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(const void* data, std::size_t len);

  /// Lowercase hex rendering of a digest (for tests and debugging).
  static std::string hex(const Digest& d);

  /// Fold one 64-byte block into `state`, on the compress this CPU runs.
  static void compress(State& state, const std::uint8_t* block);

  /// The FIPS 180-1 compress in plain C++; runs on every CPU.
  static void compress_portable(State& state, const std::uint8_t* block);

  /// Which compress compress() runs: "sha-ni" or "portable".
  static const char* compress_name();

 private:
  State state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, kBlockBytes> buffer_{};
  std::size_t buffered_ = 0;
};

}  // namespace scioto
