#include "exec/expression.h"

#include <atomic>
#include <cstring>

#include "common/logging.h"

namespace adaptagg {

std::string CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

class ColExpr : public Expr {
 public:
  explicit ColExpr(int index) : index_(index) {}

  Result<DataType> Validate(const Schema& schema) const override {
    if (index_ < 0 || index_ >= schema.num_fields()) {
      return Status::InvalidArgument("column index " +
                                     std::to_string(index_) +
                                     " out of range");
    }
    return schema.field(index_).type;
  }

  Value Eval(const TupleView& row) const override {
    return row.GetValue(index_);
  }

  std::string ToString() const override {
    return "$" + std::to_string(index_);
  }

 private:
  int index_;
};

class ColNamedExpr : public Expr {
 public:
  explicit ColNamedExpr(std::string name) : name_(std::move(name)) {}

  Result<DataType> Validate(const Schema& schema) const override {
    ADAPTAGG_ASSIGN_OR_RETURN(int idx, schema.FieldIndex(name_));
    // Cache the resolution for Eval; re-validating against a different
    // schema re-resolves. Atomic because a predicate tree shared by
    // several served queries is re-validated on each Submit
    // (ValidateRunOptions) while node threads of an earlier query may
    // already be evaluating it: all writers store the same value for a
    // given schema, but the accesses still need ordering.
    index_.store(idx, std::memory_order_release);
    return schema.field(idx).type;
  }

  Value Eval(const TupleView& row) const override {
    int idx = index_.load(std::memory_order_acquire);
    ADAPTAGG_DCHECK(idx >= 0) << "Eval before Validate";
    return row.GetValue(idx);
  }

  std::string ToString() const override { return name_; }

 private:
  std::string name_;
  mutable std::atomic<int> index_{-1};
};

class LitExpr : public Expr {
 public:
  explicit LitExpr(Value v) : value_(std::move(v)) {}

  Result<DataType> Validate(const Schema&) const override {
    return value_.type();
  }

  Value Eval(const TupleView&) const override { return value_; }

  std::string ToString() const override {
    if (value_.is_bytes()) return "'" + value_.ToString() + "'";
    return value_.ToString();
  }

 private:
  Value value_;
};

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<DataType> Validate(const Schema& schema) const override {
    ADAPTAGG_ASSIGN_OR_RETURN(DataType lt, lhs_->Validate(schema));
    ADAPTAGG_ASSIGN_OR_RETURN(DataType rt, rhs_->Validate(schema));
    bool both_numeric = IsNumeric(lt) && IsNumeric(rt);
    bool both_bytes = lt == DataType::kBytes && rt == DataType::kBytes;
    if (!both_numeric && !both_bytes) {
      return Status::InvalidArgument("comparison operands mismatch: " +
                                     ToString());
    }
    return DataType::kInt64;
  }

  Value Eval(const TupleView& row) const override {
    Value l = lhs_->Eval(row);
    Value r = rhs_->Eval(row);
    int cmp;
    if (l.is_bytes()) {
      cmp = l.bytes().compare(r.bytes());
    } else if (l.is_int64() && r.is_int64()) {
      cmp = l.int64() < r.int64() ? -1 : (l.int64() > r.int64() ? 1 : 0);
    } else {
      double ld = l.AsDouble(), rd = r.AsDouble();
      cmp = ld < rd ? -1 : (ld > rd ? 1 : 0);
    }
    bool out = false;
    switch (op_) {
      case CmpOp::kEq:
        out = cmp == 0;
        break;
      case CmpOp::kNe:
        out = cmp != 0;
        break;
      case CmpOp::kLt:
        out = cmp < 0;
        break;
      case CmpOp::kLe:
        out = cmp <= 0;
        break;
      case CmpOp::kGt:
        out = cmp > 0;
        break;
      case CmpOp::kGe:
        out = cmp >= 0;
        break;
    }
    return Value(int64_t{out ? 1 : 0});
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CmpOpToString(op_) + " " +
           rhs_->ToString() + ")";
  }

 private:
  CmpOp op_;
  ExprPtr lhs_, rhs_;
};

class LogicalExpr : public Expr {
 public:
  enum class Kind { kAnd, kOr, kNot };

  LogicalExpr(Kind kind, ExprPtr lhs, ExprPtr rhs)
      : kind_(kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<DataType> Validate(const Schema& schema) const override {
    ADAPTAGG_ASSIGN_OR_RETURN(DataType lt, lhs_->Validate(schema));
    if (!IsNumeric(lt)) {
      return Status::InvalidArgument("boolean operand must be numeric: " +
                                     lhs_->ToString());
    }
    if (rhs_ != nullptr) {
      ADAPTAGG_ASSIGN_OR_RETURN(DataType rt, rhs_->Validate(schema));
      if (!IsNumeric(rt)) {
        return Status::InvalidArgument(
            "boolean operand must be numeric: " + rhs_->ToString());
      }
    }
    return DataType::kInt64;
  }

  Value Eval(const TupleView& row) const override {
    bool l = lhs_->Eval(row).AsDouble() != 0;
    switch (kind_) {
      case Kind::kNot:
        return Value(int64_t{l ? 0 : 1});
      case Kind::kAnd:
        // Short-circuit.
        if (!l) return Value(int64_t{0});
        return Value(int64_t{rhs_->Eval(row).AsDouble() != 0 ? 1 : 0});
      case Kind::kOr:
        if (l) return Value(int64_t{1});
        return Value(int64_t{rhs_->Eval(row).AsDouble() != 0 ? 1 : 0});
    }
    return Value(int64_t{0});
  }

  std::string ToString() const override {
    switch (kind_) {
      case Kind::kNot:
        return "(NOT " + lhs_->ToString() + ")";
      case Kind::kAnd:
        return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
      case Kind::kOr:
        return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    }
    return "?";
  }

 private:
  Kind kind_;
  ExprPtr lhs_, rhs_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<DataType> Validate(const Schema& schema) const override {
    ADAPTAGG_ASSIGN_OR_RETURN(DataType lt, lhs_->Validate(schema));
    ADAPTAGG_ASSIGN_OR_RETURN(DataType rt, rhs_->Validate(schema));
    if (!IsNumeric(lt) || !IsNumeric(rt)) {
      return Status::InvalidArgument("arithmetic needs numeric operands: " +
                                     ToString());
    }
    // Division always produces double; otherwise int64 unless widened.
    if (op_ == ArithOp::kDiv || lt == DataType::kDouble ||
        rt == DataType::kDouble) {
      return DataType::kDouble;
    }
    return DataType::kInt64;
  }

  Value Eval(const TupleView& row) const override {
    Value l = lhs_->Eval(row);
    Value r = rhs_->Eval(row);
    if (op_ != ArithOp::kDiv && l.is_int64() && r.is_int64()) {
      switch (op_) {
        case ArithOp::kAdd:
          return Value(l.int64() + r.int64());
        case ArithOp::kSub:
          return Value(l.int64() - r.int64());
        case ArithOp::kMul:
          return Value(l.int64() * r.int64());
        case ArithOp::kDiv:
          break;
      }
    }
    double ld = l.AsDouble(), rd = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        return Value(ld + rd);
      case ArithOp::kSub:
        return Value(ld - rd);
      case ArithOp::kMul:
        return Value(ld * rd);
      case ArithOp::kDiv:
        return Value(rd == 0 ? 0.0 : ld / rd);
    }
    return Value(0.0);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + ArithOpToString(op_) + " " +
           rhs_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

}  // namespace

ExprPtr Col(int index) { return std::make_shared<ColExpr>(index); }
ExprPtr ColNamed(std::string name) {
  return std::make_shared<ColNamedExpr>(std::move(name));
}
ExprPtr Lit(Value v) { return std::make_shared<LitExpr>(std::move(v)); }

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CmpExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kNe, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kGe, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalExpr::Kind::kAnd,
                                       std::move(lhs), std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalExpr::Kind::kOr,
                                       std::move(lhs), std::move(rhs));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(LogicalExpr::Kind::kNot,
                                       std::move(operand), nullptr);
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Add(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kAdd, std::move(lhs), std::move(rhs));
}
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kSub, std::move(lhs), std::move(rhs));
}
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kMul, std::move(lhs), std::move(rhs));
}
ExprPtr Div(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kDiv, std::move(lhs), std::move(rhs));
}

bool EvalPredicate(const Expr& expr, const TupleView& row) {
  return expr.Eval(row).AsDouble() != 0;
}

Status ValidatePredicate(const Expr& expr, const Schema& schema) {
  ADAPTAGG_ASSIGN_OR_RETURN(DataType t, expr.Validate(schema));
  if (t != DataType::kInt64 && t != DataType::kDouble) {
    return Status::InvalidArgument("predicate must be numeric: " +
                                   expr.ToString());
  }
  return Status::OK();
}

}  // namespace adaptagg
