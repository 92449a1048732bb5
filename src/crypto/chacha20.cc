#include "src/crypto/chacha20.h"

#include <cstring>

#include "src/base/bits.h"

namespace ciocrypto {

namespace {

using ciobase::RotL32;

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = RotL32(d, 16);
  c += d;
  b ^= c;
  b = RotL32(b, 12);
  a += b;
  d ^= a;
  d = RotL32(d, 8);
  c += d;
  b ^= c;
  b = RotL32(b, 7);
}

// Fills the 16-word ChaCha20 state for (key, counter, nonce). Done once per
// ChaCha20Xor call; only state[12] (the block counter) changes between blocks.
inline void InitState(uint32_t state[16], const uint8_t key[kChaCha20KeySize],
                      uint32_t counter,
                      const uint8_t nonce[kChaCha20NonceSize]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = ciobase::LoadLe32(key + i * 4);
  }
  state[12] = counter;
  state[13] = ciobase::LoadLe32(nonce);
  state[14] = ciobase::LoadLe32(nonce + 4);
  state[15] = ciobase::LoadLe32(nonce + 8);
}

// One keystream block from an already-initialized state (state[12] = counter).
inline void BlockFromState(const uint32_t state[16],
                           uint8_t out[kChaCha20BlockSize]) {
  uint32_t x[16];
  std::memcpy(x, state, 16 * sizeof(uint32_t));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    ciobase::StoreLe32(out + i * 4, x[i] + state[i]);
  }
}

inline constexpr int kLanes = 4;

// Four 32-bit lanes in one 128-bit register (GCC/Clang vector extension):
// lane l of every word belongs to block counter + l. The arithmetic below is
// written on whole vectors, so the generated code is SIMD at every
// optimisation level instead of depending on the auto-vectorizer.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

inline U32x4 RotL4(U32x4 x, int n) { return (x << n) | (x >> (32 - n)); }

// One quarter-round across 4 independent blocks.
inline void QuarterRound4(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d = RotL4(d ^ a, 16);
  c += d;
  b = RotL4(b ^ c, 12);
  a += b;
  d = RotL4(d ^ a, 8);
  c += d;
  b = RotL4(b ^ c, 7);
}

// Generates 4 consecutive keystream blocks (counters counter..counter+3, each
// wrapping mod 2^32 independently, per RFC 8439's 32-bit block counter) into
// out[0..255]. Lane-major layout: v[word][lane].
inline void Blocks4(const uint32_t state[16], uint32_t counter,
                    uint8_t out[kLanes * kChaCha20BlockSize]) {
  U32x4 init[16];
  for (int i = 0; i < 16; ++i) {
    init[i] = U32x4{state[i], state[i], state[i], state[i]};
  }
  init[12] = U32x4{counter, counter + 1, counter + 2, counter + 3};
  U32x4 v[16];
  for (int i = 0; i < 16; ++i) {
    v[i] = init[i];
  }
  for (int round = 0; round < 10; ++round) {
    QuarterRound4(v[0], v[4], v[8], v[12]);
    QuarterRound4(v[1], v[5], v[9], v[13]);
    QuarterRound4(v[2], v[6], v[10], v[14]);
    QuarterRound4(v[3], v[7], v[11], v[15]);
    QuarterRound4(v[0], v[5], v[10], v[15]);
    QuarterRound4(v[1], v[6], v[11], v[12]);
    QuarterRound4(v[2], v[7], v[8], v[13]);
    QuarterRound4(v[3], v[4], v[9], v[14]);
  }
  for (int i = 0; i < 16; ++i) {
    v[i] += init[i];
  }
  for (int l = 0; l < kLanes; ++l) {
    uint8_t* block = out + static_cast<size_t>(l) * kChaCha20BlockSize;
    for (int i = 0; i < 16; ++i) {
      ciobase::StoreLe32(block + i * 4, v[i][l]);
    }
  }
}

// XORs n bytes of keystream into out, 8 bytes at a time (memcpy keeps the
// word loads/stores alignment-safe; in and out may alias exactly).
inline void XorWords(const uint8_t* in, const uint8_t* keystream, uint8_t* out,
                     size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    uint64_t ks;
    std::memcpy(&word, in + i, 8);
    std::memcpy(&ks, keystream + i, 8);
    word ^= ks;
    std::memcpy(out + i, &word, 8);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint8_t>(in[i] ^ keystream[i]);
  }
}

}  // namespace

void ChaCha20Block(const uint8_t key[kChaCha20KeySize], uint32_t counter,
                   const uint8_t nonce[kChaCha20NonceSize],
                   uint8_t out[kChaCha20BlockSize]) {
  uint32_t state[16];
  InitState(state, key, counter, nonce);
  BlockFromState(state, out);
}

void ChaCha20Xor(const uint8_t key[kChaCha20KeySize],
                 const uint8_t nonce[kChaCha20NonceSize],
                 uint32_t initial_counter, ciobase::ByteSpan in, uint8_t* out) {
  constexpr size_t kStride = kLanes * kChaCha20BlockSize;  // 256
  uint32_t state[16];
  InitState(state, key, initial_counter, nonce);
  uint32_t counter = initial_counter;
  uint8_t keystream[kStride];
  size_t i = 0;
  while (in.size() - i >= kStride) {
    Blocks4(state, counter, keystream);
    XorWords(in.data() + i, keystream, out + i, kStride);
    counter += kLanes;  // wraps mod 2^32 like the per-block counter
    i += kStride;
  }
  while (i < in.size()) {
    state[12] = counter++;
    BlockFromState(state, keystream);
    size_t n = std::min(in.size() - i, kChaCha20BlockSize);
    XorWords(in.data() + i, keystream, out + i, n);
    i += n;
  }
}

}  // namespace ciocrypto
