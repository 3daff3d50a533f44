#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "common/random.h"

namespace adaptagg {
namespace simd {

namespace {

// The resolved dispatch, cached process-wide. kUnresolved sentinel keeps
// the whole state in one atomic; a racing first call resolves twice to
// the same value (the environment and CPUID are stable), so the extra
// store is idempotent.
constexpr int kUnresolved = -1;
std::atomic<int> g_dispatch{kUnresolved};
std::atomic<bool> g_forced_scalar{false};
std::atomic<bool> g_logged{false};

bool EnvForcesScalar() {
  const char* v = std::getenv("ADAPTAGG_FORCE_SCALAR");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const char* KindName(DispatchKind kind) {
  switch (kind) {
    case DispatchKind::kAvx2:
      return "avx2";
    case DispatchKind::kNeon:
      return "neon";
    case DispatchKind::kScalar:
      break;
  }
  return "scalar";
}

DispatchKind Resolve() {
  int cached = g_dispatch.load(std::memory_order_acquire);
  if (cached != kUnresolved) return static_cast<DispatchKind>(cached);

  const bool forced = EnvForcesScalar();
  DispatchKind kind = DispatchKind::kScalar;
  if (!forced) {
#if defined(ADAPTAGG_SIMD_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2")) kind = DispatchKind::kAvx2;
#elif defined(ADAPTAGG_SIMD_NEON)
    kind = DispatchKind::kNeon;
#endif
  }
  g_forced_scalar.store(forced, std::memory_order_release);
  g_dispatch.store(static_cast<int>(kind), std::memory_order_release);
  if (!g_logged.exchange(true, std::memory_order_acq_rel)) {
    ADAPTAGG_LOG(kInfo) << "simd dispatch resolved to " << KindName(kind)
                        << (forced ? " (ADAPTAGG_FORCE_SCALAR)" : "");
  }
  return kind;
}

}  // namespace

DispatchKind ActiveDispatch() { return Resolve(); }

const char* DispatchName() { return KindName(ActiveDispatch()); }

bool ForcedScalar() {
  Resolve();
  return g_forced_scalar.load(std::memory_order_acquire);
}

void ResetDispatchForTest() {
  g_dispatch.store(kUnresolved, std::memory_order_release);
  g_forced_scalar.store(false, std::memory_order_release);
  g_logged.store(false, std::memory_order_release);
}

void HashKeysFnvWordsScalar(const uint8_t* recs, int stride, int words,
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

void HashKeysFnvWords(const uint8_t* recs, int stride, int words, int n,
                      uint64_t basis, uint64_t prime, uint64_t* out) {
#if defined(ADAPTAGG_SIMD_HAVE_AVX2)
  if (ActiveDispatch() == DispatchKind::kAvx2) {
    HashKeysFnvWordsAvx2(recs, stride, words, n, basis, prime, out);
    return;
  }
#endif
  HashKeysFnvWordsScalar(recs, stride, words, n, basis, prime, out);
}

void MergeMinMaxInt64Scalar(uint8_t* state, const uint8_t* other,
                            const uint8_t* is_min, int num_ops) {
  for (int op = 0; op < num_ops; ++op) {
    uint8_t* s_ptr = state + op * 16;
    const uint8_t* o_ptr = other + op * 16;
    int64_t other_seen;
    std::memcpy(&other_seen, o_ptr + 8, 8);
    if (other_seen == 0) continue;
    int64_t mine;
    int64_t theirs;
    std::memcpy(&mine, s_ptr, 8);
    std::memcpy(&theirs, o_ptr, 8);
    const bool take =
        is_min[op] != 0 ? (theirs < mine) : (theirs > mine);
    if (take) std::memcpy(s_ptr, &theirs, 8);
    const int64_t seen = 1;
    std::memcpy(s_ptr + 8, &seen, 8);
  }
}

MinMaxMergeFn ResolveMinMaxMerge() {
#if defined(ADAPTAGG_SIMD_HAVE_AVX2)
  if (ActiveDispatch() == DispatchKind::kAvx2) return &MergeMinMaxInt64Avx2;
#endif
  return &MergeMinMaxInt64Scalar;
}

}  // namespace simd
}  // namespace adaptagg
