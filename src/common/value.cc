#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace imp {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

double Value::ToDouble() const {
  if (is_int()) return static_cast<double>(AsInt());
  IMP_CHECK_MSG(is_double(), "ToDouble on non-numeric value");
  return AsDouble();
}

bool Value::IsTrue() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return AsInt() != 0;
    case ValueType::kDouble:
      return AsDouble() != 0.0;
    case ValueType::kString:
      return !AsString().empty();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  // Numeric values compare by magnitude regardless of int/double tag.
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = ToDouble(), b = other.ToDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numeric handled above
  }
}

namespace {
template <typename IntOp, typename DblOp>
Value NumericBinary(const Value& a, const Value& b, IntOp iop, DblOp dop) {
  if (a.is_null() || b.is_null()) return Value::Null();
  IMP_CHECK_MSG(a.is_numeric() && b.is_numeric(),
                "arithmetic on non-numeric value");
  if (a.is_int() && b.is_int()) return Value::Int(iop(a.AsInt(), b.AsInt()));
  return Value::Double(dop(a.ToDouble(), b.ToDouble()));
}
}  // namespace

Value Value::Add(const Value& a, const Value& b) {
  if (a.is_string() && b.is_string()) {
    return Value::String(a.AsString() + b.AsString());  // string concat
  }
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x + y; },
      [](double x, double y) { return x + y; });
}

Value Value::Sub(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x - y; },
      [](double x, double y) { return x - y; });
}

Value Value::Mul(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x * y; },
      [](double x, double y) { return x * y; });
}

Value Value::Div(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  IMP_CHECK_MSG(a.is_numeric() && b.is_numeric(), "division on non-numeric");
  if (a.is_int() && b.is_int()) {
    if (b.AsInt() == 0) return Value::Null();  // SQL: division by zero -> NULL
    return Value::Int(a.AsInt() / b.AsInt());
  }
  double d = b.ToDouble();
  if (d == 0.0) return Value::Null();
  return Value::Double(a.ToDouble() / d);
}

Value Value::Mod(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  IMP_CHECK_MSG(a.is_int() && b.is_int(), "modulo needs integers");
  if (b.AsInt() == 0) return Value::Null();
  return Value::Int(a.AsInt() % b.AsInt());
}

Value Value::Neg(const Value& a) {
  if (a.is_null()) return Value::Null();
  if (a.is_int()) return Value::Int(-a.AsInt());
  IMP_CHECK_MSG(a.is_double(), "negation on non-numeric");
  return Value::Double(-a.AsDouble());
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      return HashInt64(static_cast<uint64_t>(AsInt()));
    case ValueType::kDouble: {
      double d = AsDouble();
      // Hash doubles holding integral values like the equal int (Compare
      // treats 2 == 2.0, so Hash must agree).
      if (d == static_cast<double>(static_cast<int64_t>(d)) &&
          std::abs(d) < 9.2e18) {
        return HashInt64(static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    case ValueType::kString:
      return HashBytes(AsString().data(), AsString().size());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

size_t Value::MemoryBytes() const {
  size_t base = sizeof(Value);
  if (is_string() && AsString().size() > sizeof(std::string)) {
    base += AsString().capacity();
  }
  return base;
}

}  // namespace imp
