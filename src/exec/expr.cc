#include "exec/expr.h"

namespace mtdb {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<Value> CompareExpr::Eval(const Row& row, const ExecContext& ctx) const {
  MTDB_ASSIGN_OR_RETURN(Value l, left_->Eval(row, ctx));
  MTDB_ASSIGN_OR_RETURN(Value r, right_->Eval(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  int c = l.Compare(r);
  bool result = false;
  switch (op_) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return Value::Bool(result);
}

std::string CompareExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString() + ")";
}

Result<Value> AndExpr::Eval(const Row& row, const ExecContext& ctx) const {
  // Three-valued logic with short circuit on FALSE.
  MTDB_ASSIGN_OR_RETURN(Value l, left_->Eval(row, ctx));
  if (!l.is_null() && !l.AsBool()) return Value::Bool(false);
  MTDB_ASSIGN_OR_RETURN(Value r, right_->Eval(row, ctx));
  if (!r.is_null() && !r.AsBool()) return Value::Bool(false);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  return Value::Bool(true);
}

Result<Value> OrExpr::Eval(const Row& row, const ExecContext& ctx) const {
  MTDB_ASSIGN_OR_RETURN(Value l, left_->Eval(row, ctx));
  if (!l.is_null() && l.AsBool()) return Value::Bool(true);
  MTDB_ASSIGN_OR_RETURN(Value r, right_->Eval(row, ctx));
  if (!r.is_null() && r.AsBool()) return Value::Bool(true);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  return Value::Bool(false);
}

Result<Value> NotExpr::Eval(const Row& row, const ExecContext& ctx) const {
  MTDB_ASSIGN_OR_RETURN(Value v, child_->Eval(row, ctx));
  if (v.is_null()) return Value::Null(TypeId::kBool);
  return Value::Bool(!v.AsBool());
}

Result<Value> ArithmeticExpr::Eval(const Row& row,
                                   const ExecContext& ctx) const {
  MTDB_ASSIGN_OR_RETURN(Value l, left_->Eval(row, ctx));
  MTDB_ASSIGN_OR_RETURN(Value r, right_->Eval(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null();
  // Strings first: a string beside a DOUBLE must not reach AsDouble().
  if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
    if (op_ == ArithOp::kAdd) {
      return Value::String(l.ToString() + r.ToString());
    }
    return Status::TypeMismatch("arithmetic on strings");
  }
  const bool use_double =
      l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;
  if (use_double) {
    double a = l.AsDouble(), b = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Double(a + b);
      case ArithOp::kSub:
        return Value::Double(a - b);
      case ArithOp::kMul:
        return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      case ArithOp::kMod:
        return Status::TypeMismatch("MOD on non-integers");
    }
  }
  int64_t a = l.AsInt64(), b = r.AsInt64();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Int64(a + b);
    case ArithOp::kSub:
      return Value::Int64(a - b);
    case ArithOp::kMul:
      return Value::Int64(a * b);
    case ArithOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Int64(a / b);
    case ArithOp::kMod:
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int64(a % b);
  }
  return Status::Internal("unknown arithmetic op");
}

std::string ArithmeticExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
    case ArithOp::kMod:
      op = "%";
      break;
  }
  return "(" + left_->ToString() + " " + op + " " + right_->ToString() + ")";
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> LikeExpr::Eval(const Row& row, const ExecContext& ctx) const {
  MTDB_ASSIGN_OR_RETURN(Value v, value_->Eval(row, ctx));
  MTDB_ASSIGN_OR_RETURN(Value pat, pattern_->Eval(row, ctx));
  if (v.is_null() || pat.is_null()) return Value::Null(TypeId::kBool);
  bool matched = LikeMatch(v.ToString(), pat.ToString());
  return Value::Bool(negated_ ? !matched : matched);
}

Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const ExecContext& ctx) {
  MTDB_ASSIGN_OR_RETURN(Value v, expr.Eval(row, ctx));
  if (v.is_null()) return false;
  return v.AsBool();
}

void SplitConjuncts(const Expr& expr, std::vector<ExprPtr>* out) {
  if (expr.kind() == ExprKind::kAnd) {
    const auto& a = static_cast<const AndExpr&>(expr);
    SplitConjuncts(*a.left(), out);
    SplitConjuncts(*a.right(), out);
    return;
  }
  out->push_back(expr.Clone());
}

ExprPtr JoinConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = std::make_unique<AndExpr>(std::move(acc), std::move(conjuncts[i]));
  }
  return acc;
}

}  // namespace mtdb
