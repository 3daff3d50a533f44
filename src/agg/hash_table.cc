#include "agg/hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace adaptagg {
namespace {

int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Slots allocated up front; tables bounded below this never resize at
/// all, larger ones grow by doubling from here.
constexpr int64_t kInitialSlots = int64_t{1} << 16;

inline bool KeysEqual(const uint8_t* a, const uint8_t* b, int width,
                      bool key8) {
  if (key8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    return x == y;
  }
  return std::memcmp(a, b, static_cast<size_t>(width)) == 0;
}

// Per-record update functors plugged into UpsertBatchImpl. Each folds
// one record into its slot's state; the fused ones hoist the per-op
// dispatch of UpdateFromProjected/MergeState out of the probe loop and
// must stay behaviorally identical to it (InitState has already
// zeroed/initialized the state on insert). Their arithmetic is the word
// kernels of common/simd.h.

/// Interpreted raw-value fallback.
struct GenericUpdate {
  const AggregationSpec* spec;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    spec->UpdateFromProjected(state, rec);
  }
};

/// COUNT(*), SUM(int64): state [count:int64][sum:int64]; the single SUM
/// input is the 8-byte value slot right after the key.
struct CountSumInt64Update {
  int key_width;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    int64_t v;
    std::memcpy(&v, rec + key_width, 8);
    simd::AddInt64PairInPlace(state, 1, v);
  }
};

/// Duplicate elimination: reaching the slot is the whole update.
struct DistinctUpdate {
  void operator()(uint8_t*, const uint8_t*) const {}
};

/// Interpreted partial-merge fallback: `rec` is a partial record, its
/// state block sits right after the key.
struct GenericMerge {
  const AggregationSpec* spec;
  int key_width;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    spec->MergeState(state, rec + key_width);
  }
};

/// All states are int64 words merged by addition (COUNT / SUM(int64) /
/// AVG(int64), in any mix): one flat vector add over the state block.
struct AddInt64Merge {
  int key_width;
  int words;  // state_width / 8
  void operator()(uint8_t* state, const uint8_t* rec) const {
    simd::AddInt64Words(state, rec + key_width, words);
  }
};

/// All ops are MIN/MAX(int64): per-op [extremum:int64][seen:int64]
/// blocks. Mirrors AggregateOp::MergePartial exactly: an unseen other is
/// skipped, the extremum compare-stores, seen is set to 1.
struct MinMaxInt64Merge {
  int key_width;
  const uint8_t* is_min;  // per-op flag, 1 = MIN
  int num_ops;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    simd::MergeMinMaxInt64(state, rec + key_width, is_min, num_ops);
  }
};

}  // namespace

AggHashTable::AggHashTable(const AggregationSpec* spec, int64_t max_entries)
    : spec_(spec),
      max_entries_(max_entries),
      key_width_(spec->key_width()),
      state_width_(spec->state_width()),
      slot_width_(spec->key_width() + spec->state_width()) {
  ADAPTAGG_CHECK(max_entries_ > 0) << "hash table needs capacity";
  // Bucket array sized for <= ~70% load at max occupancy.
  int64_t buckets = NextPow2(max_entries_ + max_entries_ / 2 + 1);
  buckets_.assign(static_cast<size_t>(buckets), -1);
  bucket_mask_ = static_cast<uint64_t>(buckets - 1);
  // Pre-size the slot arena so the insert path never resizes per record
  // (EnsureSlotCapacity doubles beyond this for very large bounds).
  capacity_slots_ = std::min<int64_t>(max_entries_, kInitialSlots);
  arena_.resize(static_cast<size_t>(capacity_slots_ * slot_width_));
}

int64_t AggHashTable::MemoryBytes() const {
  return capacity_slots_ * slot_width_ +
         static_cast<int64_t>(buckets_.size() * sizeof(int64_t));
}

void AggHashTable::EnsureSlotCapacity(int64_t slots) {
  if (slots <= capacity_slots_) return;
  int64_t grown = capacity_slots_;
  while (grown < slots) grown *= 2;
  capacity_slots_ = std::min<int64_t>(grown, max_entries_);
  arena_.resize(static_cast<size_t>(capacity_slots_ * slot_width_));
  ++stats_.resizes;
}

int64_t AggHashTable::Probe(const uint8_t* key, uint64_t hash,
                            bool* found) const {
  uint64_t pos = hash & bucket_mask_;
  while (true) {
    int64_t slot = buckets_[pos];
    if (slot < 0) {
      *found = false;
      return static_cast<int64_t>(pos);
    }
    const uint8_t* slot_key = arena_.data() + slot * slot_width_;
    if (std::memcmp(slot_key, key, static_cast<size_t>(key_width_)) == 0) {
      *found = true;
      return slot;
    }
    pos = (pos + 1) & bucket_mask_;
  }
}

AggHashTable::UpsertResult AggHashTable::FindOrInsert(const uint8_t* key,
                                                      uint64_t hash,
                                                      uint8_t** state) {
  bool found = false;
  int64_t pos = Probe(key, hash, &found);
  ++stats_.probes;
  if (found) {
    ++stats_.hits;
    *state = arena_.data() + pos * slot_width_ + key_width_;
    return UpsertResult::kUpdated;
  }
  if (size_ >= max_entries_) {
    *state = nullptr;
    return UpsertResult::kFull;
  }
  ++stats_.inserts;
  int64_t slot = size_++;
  EnsureSlotCapacity(size_);
  uint8_t* slot_ptr = arena_.data() + slot * slot_width_;
  std::memcpy(slot_ptr, key, static_cast<size_t>(key_width_));
  spec_->InitState(slot_ptr + key_width_);
  buckets_[static_cast<size_t>(pos)] = slot;
  *state = slot_ptr + key_width_;
  return UpsertResult::kInserted;
}

AggHashTable::UpsertResult AggHashTable::UpsertProjected(const uint8_t* proj,
                                                         uint64_t hash) {
  uint8_t* state = nullptr;
  UpsertResult r = FindOrInsert(spec_->KeyOfProjected(proj), hash, &state);
  if (r != UpsertResult::kFull) {
    spec_->UpdateFromProjected(state, proj);
  }
  return r;
}

AggHashTable::UpsertResult AggHashTable::UpsertPartial(const uint8_t* partial,
                                                       uint64_t hash) {
  uint8_t* state = nullptr;
  UpsertResult r = FindOrInsert(spec_->KeyOfPartial(partial), hash, &state);
  if (r != UpsertResult::kFull) {
    spec_->MergeState(state, spec_->StateOfPartial(partial));
  }
  return r;
}

template <bool Key8, bool StopAtFull, typename UpdateFn>
int AggHashTable::UpsertBatchImpl(const TupleBatch& batch, int from,
                                  std::vector<int>* overflow, bool fused,
                                  const UpdateFn& update) {
  const uint8_t* recs = batch.records();
  const int stride = batch.stride();
  const uint64_t* hashes = batch.hashes();
  const int n = batch.size();
  // Make room for the worst case up front: pointers into the arena stay
  // stable for the whole batch and no insert pays a resize check.
  EnsureSlotCapacity(std::min<int64_t>(max_entries_, size_ + (n - from)));
  uint8_t* arena = arena_.data();
  const int64_t size_before = size_;
  const int64_t ovf_before =
      overflow != nullptr ? static_cast<int64_t>(overflow->size()) : 0;

  // Streaming loop: the probe body stays inline so the compiler and the
  // out-of-order core can overlap each iteration's prefetches with the
  // previous probe's dependent loads — on tables that outgrow cache this
  // overlap is worth ~25% of the whole pass.
  for (int i = from; i < n; ++i) {
    // Two-stage software pipeline: pull the bucket-array line for probe
    // i+D, and the slot line for probe i+D/2 (whose bucket head is, by
    // then, usually resident). Pure prefetches — collisions and inserts
    // between now and then only waste the hint, never correctness.
    if (i + kPrefetchDistance < n) {
      simd::PrefetchRead(
          &buckets_[hashes[i + kPrefetchDistance] & bucket_mask_]);
    }
    if (i + kPrefetchDistance / 2 < n) {
      const int64_t ahead =
          buckets_[hashes[i + kPrefetchDistance / 2] & bucket_mask_];
      if (ahead >= 0) simd::PrefetchRead(arena + ahead * slot_width_);
    }

    const uint8_t* rec = recs + static_cast<int64_t>(i) * stride;
    const uint64_t hash = hashes[i];
    uint64_t pos = hash & bucket_mask_;
    uint8_t* hit_state = nullptr;
    uint64_t insert_pos = 0;
    bool found = false;
    while (true) {
      int64_t slot = buckets_[pos];
      if (slot < 0) {
        insert_pos = pos;
        break;
      }
      uint8_t* slot_ptr = arena + slot * slot_width_;
      if (KeysEqual(slot_ptr, rec, key_width_, Key8)) {
        hit_state = slot_ptr + key_width_;
        found = true;
        break;
      }
      pos = (pos + 1) & bucket_mask_;
    }

    if (found) {
      update(hit_state, rec);
      continue;
    }
    if (size_ >= max_entries_) {
      if constexpr (StopAtFull) {
        NoteBatch(i - from, size_before, 0, fused);
        return i - from;
      } else {
        overflow->push_back(i);
        continue;
      }
    }
    int64_t slot = size_++;
    uint8_t* slot_ptr = arena + slot * slot_width_;
    std::memcpy(slot_ptr, rec, static_cast<size_t>(key_width_));
    spec_->InitState(slot_ptr + key_width_);
    buckets_[static_cast<size_t>(insert_pos)] = slot;
    update(slot_ptr + key_width_, rec);
  }
  const int64_t overflowed =
      overflow != nullptr ? static_cast<int64_t>(overflow->size()) - ovf_before
                          : 0;
  NoteBatch(n - from, size_before, overflowed, fused);
  return n - from;
}

template <bool StopAtFull>
int AggHashTable::DispatchUpsertBatch(const TupleBatch& batch, int from,
                                      std::vector<int>* overflow) {
  const bool key8 = key_width_ == 8;
  // Instantiates the impl over the key8 runtime split (the functor and
  // StopAtFull are compile-time already).
  auto run = [&](bool fused, const auto& update) {
    return key8 ? UpsertBatchImpl<true, StopAtFull>(batch, from, overflow,
                                                     fused, update)
                : UpsertBatchImpl<false, StopAtFull>(batch, from, overflow,
                                                      fused, update);
  };
  switch (spec_->fused_kernel()) {
    case FusedKernelKind::kCountSumInt64:
      return run(true, CountSumInt64Update{key_width_});
    case FusedKernelKind::kDistinct:
      return run(true, DistinctUpdate{});
    case FusedKernelKind::kGeneric:
      break;
  }
  return run(false, GenericUpdate{spec_});
}

template <bool StopAtFull>
int AggHashTable::DispatchMergeBatch(const TupleBatch& batch, int from,
                                     std::vector<int>* overflow) {
  const bool key8 = key_width_ == 8;
  auto run = [&](bool fused, const auto& update) {
    return key8 ? UpsertBatchImpl<true, StopAtFull>(batch, from, overflow,
                                                     fused, update)
                : UpsertBatchImpl<false, StopAtFull>(batch, from, overflow,
                                                      fused, update);
  };
  switch (spec_->fused_merge_kernel()) {
    case FusedMergeKind::kAddInt64:
      return run(true, AddInt64Merge{key_width_, state_width_ / 8});
    case FusedMergeKind::kMinMaxInt64:
      return run(true,
                 MinMaxInt64Merge{key_width_, spec_->merge_is_min().data(),
                                  static_cast<int>(spec_->ops().size())});
    case FusedMergeKind::kDistinct:
      return run(true, DistinctUpdate{});
    case FusedMergeKind::kGeneric:
      break;
  }
  return run(false, GenericMerge{spec_, key_width_});
}

int AggHashTable::UpsertProjectedBatch(const TupleBatch& batch, int from) {
  return DispatchUpsertBatch<true>(batch, from, nullptr);
}

void AggHashTable::UpsertProjectedBatchOverflow(const TupleBatch& batch,
                                                int from,
                                                std::vector<int>& overflow) {
  DispatchUpsertBatch<false>(batch, from, &overflow);
}

int AggHashTable::UpsertPartialBatch(const TupleBatch& batch, int from) {
  return DispatchMergeBatch<true>(batch, from, nullptr);
}

void AggHashTable::UpsertPartialBatchOverflow(const TupleBatch& batch,
                                              int from,
                                              std::vector<int>& overflow) {
  DispatchMergeBatch<false>(batch, from, &overflow);
}

const uint8_t* AggHashTable::Find(const uint8_t* key, uint64_t hash) const {
  bool found = false;
  int64_t pos = Probe(key, hash, &found);
  if (!found) return nullptr;
  return arena_.data() + pos * slot_width_ + key_width_;
}

void AggHashTable::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), -1);
  size_ = 0;
}

}  // namespace adaptagg
