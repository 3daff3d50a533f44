#include "agg/agg_function.h"

#include <cstring>
#include <limits>

#include "common/logging.h"

namespace adaptagg {
namespace {

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Two's-complement wrapping add: SUM/COUNT/AVG accumulators must wrap
/// on int64 overflow (sentinel extremes are legal inputs) with the same
/// bit pattern the fused word kernels (common/simd.h) produce, and a
/// raw signed add would be undefined behavior instead.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace

std::string AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

AggregateOp::AggregateOp(AggKind kind, DataType input_type)
    : kind_(kind), input_type_(input_type) {
  ADAPTAGG_CHECK(kind == AggKind::kCount || input_type == DataType::kInt64 ||
                 input_type == DataType::kDouble)
      << "aggregate input must be numeric";
  switch (kind_) {
    case AggKind::kCount:
    case AggKind::kSum:
      state_width_ = 8;
      break;
    case AggKind::kAvg:
    case AggKind::kMin:
    case AggKind::kMax:
      state_width_ = 16;
      break;
  }
}

DataType AggregateOp::output_type() const {
  switch (kind_) {
    case AggKind::kCount:
      return DataType::kInt64;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      return input_type_;
    case AggKind::kAvg:
      return DataType::kDouble;
  }
  return DataType::kInt64;
}

void AggregateOp::InitState(uint8_t* state) const {
  std::memset(state, 0, static_cast<size_t>(state_width_));
  if (kind_ == AggKind::kMin) {
    if (input_type_ == DataType::kInt64) {
      Store<int64_t>(state, std::numeric_limits<int64_t>::max());
    } else {
      Store<double>(state, std::numeric_limits<double>::infinity());
    }
  } else if (kind_ == AggKind::kMax) {
    if (input_type_ == DataType::kInt64) {
      Store<int64_t>(state, std::numeric_limits<int64_t>::min());
    } else {
      Store<double>(state, -std::numeric_limits<double>::infinity());
    }
  }
}

void AggregateOp::UpdateRaw(uint8_t* state, const uint8_t* value_bytes) const {
  switch (kind_) {
    case AggKind::kCount:
      Store<int64_t>(state, WrapAdd(Load<int64_t>(state), 1));
      return;
    case AggKind::kSum:
      if (input_type_ == DataType::kInt64) {
        Store<int64_t>(
            state, WrapAdd(Load<int64_t>(state), Load<int64_t>(value_bytes)));
      } else {
        Store<double>(state, Load<double>(state) + Load<double>(value_bytes));
      }
      return;
    case AggKind::kAvg:
      if (input_type_ == DataType::kInt64) {
        Store<int64_t>(
            state, WrapAdd(Load<int64_t>(state), Load<int64_t>(value_bytes)));
      } else {
        Store<double>(state, Load<double>(state) + Load<double>(value_bytes));
      }
      Store<int64_t>(state + 8, WrapAdd(Load<int64_t>(state + 8), 1));
      return;
    case AggKind::kMin:
      if (input_type_ == DataType::kInt64) {
        int64_t v = Load<int64_t>(value_bytes);
        if (v < Load<int64_t>(state)) Store<int64_t>(state, v);
      } else {
        double v = Load<double>(value_bytes);
        if (v < Load<double>(state)) Store<double>(state, v);
      }
      Store<int64_t>(state + 8, 1);
      return;
    case AggKind::kMax:
      if (input_type_ == DataType::kInt64) {
        int64_t v = Load<int64_t>(value_bytes);
        if (v > Load<int64_t>(state)) Store<int64_t>(state, v);
      } else {
        double v = Load<double>(value_bytes);
        if (v > Load<double>(state)) Store<double>(state, v);
      }
      Store<int64_t>(state + 8, 1);
      return;
  }
}

void AggregateOp::MergePartial(uint8_t* state, const uint8_t* other) const {
  switch (kind_) {
    case AggKind::kCount:
      Store<int64_t>(state,
                     WrapAdd(Load<int64_t>(state), Load<int64_t>(other)));
      return;
    case AggKind::kSum:
      if (input_type_ == DataType::kInt64) {
        Store<int64_t>(
            state, WrapAdd(Load<int64_t>(state), Load<int64_t>(other)));
      } else {
        Store<double>(state, Load<double>(state) + Load<double>(other));
      }
      return;
    case AggKind::kAvg:
      if (input_type_ == DataType::kInt64) {
        Store<int64_t>(
            state, WrapAdd(Load<int64_t>(state), Load<int64_t>(other)));
      } else {
        Store<double>(state, Load<double>(state) + Load<double>(other));
      }
      Store<int64_t>(state + 8, WrapAdd(Load<int64_t>(state + 8),
                                        Load<int64_t>(other + 8)));
      return;
    case AggKind::kMin:
      if (Load<int64_t>(other + 8) == 0) return;  // other saw no tuples
      if (input_type_ == DataType::kInt64) {
        int64_t v = Load<int64_t>(other);
        if (v < Load<int64_t>(state)) Store<int64_t>(state, v);
      } else {
        double v = Load<double>(other);
        if (v < Load<double>(state)) Store<double>(state, v);
      }
      Store<int64_t>(state + 8, 1);
      return;
    case AggKind::kMax:
      if (Load<int64_t>(other + 8) == 0) return;
      if (input_type_ == DataType::kInt64) {
        int64_t v = Load<int64_t>(other);
        if (v > Load<int64_t>(state)) Store<int64_t>(state, v);
      } else {
        double v = Load<double>(other);
        if (v > Load<double>(state)) Store<double>(state, v);
      }
      Store<int64_t>(state + 8, 1);
      return;
  }
}

Value AggregateOp::Finalize(const uint8_t* state) const {
  switch (kind_) {
    case AggKind::kCount:
      return Value(Load<int64_t>(state));
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      if (input_type_ == DataType::kInt64) {
        return Value(Load<int64_t>(state));
      }
      return Value(Load<double>(state));
    case AggKind::kAvg: {
      int64_t count = Load<int64_t>(state + 8);
      double sum = input_type_ == DataType::kInt64
                       ? static_cast<double>(Load<int64_t>(state))
                       : Load<double>(state);
      // A group always has >= 1 tuple; guard anyway for empty states.
      return Value(count == 0 ? 0.0 : sum / static_cast<double>(count));
    }
  }
  return Value();
}

void AggregateOp::FinalizeTo(const uint8_t* state, uint8_t* out) const {
  Value v = Finalize(state);
  if (v.is_int64()) {
    Store<int64_t>(out, v.int64());
  } else {
    Store<double>(out, v.dbl());
  }
}

}  // namespace adaptagg
