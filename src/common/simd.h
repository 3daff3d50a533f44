#ifndef ADAPTAGG_COMMON_SIMD_H_
#define ADAPTAGG_COMMON_SIMD_H_

// The word kernels of the batch hash and the fused aggregate/merge
// updates, and the read prefetch shared by the hash-table probes and the
// heap-page scan, in portable C++: one code path on every host. DESIGN.md §6
// has the measurement that keeps it that way (hashing is under a tenth
// of the per-tuple work). Raw intrinsics are banned everywhere in src/
// by lint rule S11.
//
// Hashes decide tuple routing and result emit order, so the hash must
// stay bit-identical to HashBytes (common/random.cc) on word keys; the
// tests in tests/common/simd_test.cc pin that and the merge semantics.

#include <cstdint>
#include <cstring>

#include "common/random.h"

namespace adaptagg {
namespace simd {

/// Names the kernel path stamped into benchmark JSON; always "scalar".
inline const char* DispatchName() { return "scalar"; }

/// Bytes per cache line on the hosts the engine targets (x86-64, and
/// the common AArch64 cores).
inline constexpr int kCacheLineBytes = 64;

/// Portable prefetch-for-read into all cache levels.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Hashes the `words * 8`-byte key prefix of `n` records laid out
/// `stride` bytes apart: per word `h = (h ^ word) * prime` starting from
/// `basis`, finalized with SplitMix64. Bit-identical to HashBytes on
/// keys whose width is a multiple of 8.
inline void HashKeysFnvWords(const uint8_t* recs, int stride, int words,
                             int n, uint64_t basis, uint64_t prime,
                             uint64_t* out) {
  for (int i = 0; i < n; ++i) {
    const uint8_t* rec = recs + static_cast<int64_t>(i) * stride;
    uint64_t h = basis;
    for (int w = 0; w < words; ++w) {
      uint64_t v;
      std::memcpy(&v, rec + w * 8, 8);
      h = (h ^ v) * prime;
    }
    out[i] = SplitMix64(h);
  }
}

/// state[0..7] += a, state[8..15] += b as int64 — the fused COUNT+SUM
/// update ([count][sum] += [1][value]) and any other 16-byte pair add.
inline void AddInt64PairInPlace(uint8_t* state, int64_t a, int64_t b) {
  // Unsigned arithmetic: accumulators wrap in two's complement on
  // overflow, never UB.
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, state, 8);
  std::memcpy(&y, state + 8, 8);
  x += static_cast<uint64_t>(a);
  y += static_cast<uint64_t>(b);
  std::memcpy(state, &x, 8);
  std::memcpy(state + 8, &y, 8);
}

/// state[w] += other[w] for `words` int64 words — the fused additive
/// partial-merge (COUNT / SUM(int64) / AVG(int64) states).
inline void AddInt64Words(uint8_t* state, const uint8_t* other,
                          int words) {
  // Word pairs, each loaded before it is stored: compilers fold a pair
  // into one 128-bit add. A plain per-word loop gets versioned for a
  // possible state/other overlap instead, a runtime check per record.
  int w = 0;
  for (; w + 2 <= words; w += 2) {
    int64_t o[2];
    std::memcpy(o, other + w * 8, 16);
    AddInt64PairInPlace(state + w * 8, o[0], o[1]);
  }
  if (w < words) {
    // Unsigned: wraps in two's complement instead of overflowing UB.
    uint64_t a;
    uint64_t b;
    std::memcpy(&a, state + w * 8, 8);
    std::memcpy(&b, other + w * 8, 8);
    a += b;
    std::memcpy(state + w * 8, &a, 8);
  }
}

/// Merges `num_ops` MIN/MAX(int64) partial blocks ([extremum:int64]
/// [seen:int64] per op; `is_min[op]` = 1 for MIN) from `other` into
/// `state`, exactly like AggregateOp::MergePartial: an unseen other op
/// is skipped, the extremum compare-stores, seen is set to 1.
inline void MergeMinMaxInt64(uint8_t* state, const uint8_t* other,
                             const uint8_t* is_min, int num_ops) {
  for (int op = 0; op < num_ops; ++op) {
    uint8_t* s_ptr = state + op * 16;
    const uint8_t* o_ptr = other + op * 16;
    int64_t other_seen;
    std::memcpy(&other_seen, o_ptr + 8, 8);
    if (other_seen == 0) continue;  // other side saw no tuples
    int64_t mine;
    int64_t theirs;
    std::memcpy(&mine, s_ptr, 8);
    std::memcpy(&theirs, o_ptr, 8);
    const bool take = is_min[op] != 0 ? (theirs < mine) : (theirs > mine);
    if (take) std::memcpy(s_ptr, &theirs, 8);
    const int64_t seen = 1;
    std::memcpy(s_ptr + 8, &seen, 8);
  }
}

}  // namespace simd
}  // namespace adaptagg

#endif  // ADAPTAGG_COMMON_SIMD_H_
