#include "storage/column_vector.h"

#include <utility>

namespace imp {

ColumnVector::ColumnVector(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      encoding_ = Encoding::kInt64;
      break;
    case ValueType::kDouble:
      encoding_ = Encoding::kDouble;
      break;
    case ValueType::kString:
      encoding_ = Encoding::kDictString;
      dict_offsets_.assign(1, 0);
      break;
    default:
      IMP_CHECK_MSG(false, "column vector needs a column type");
  }
}

void ColumnVector::AppendNullSlot() {
  nulls_.Resize(size_ + 1);
  nulls_.Set(size_);
  has_nulls_ = true;
  switch (encoding_) {
    case Encoding::kInt64:
      ints_.push_back(0);
      break;
    case Encoding::kDouble:
      doubles_.push_back(0.0);
      break;
    case Encoding::kDictString:
      codes_.push_back(0);
      break;
    case Encoding::kFlatString:
      flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      break;
  }
  ++size_;
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNullSlot();
    return;
  }
  IMP_DCHECK((encoding_ == Encoding::kInt64 && v.is_int()) ||
             (encoding_ == Encoding::kDouble && v.is_double()) ||
             (encoding_ >= Encoding::kDictString && v.is_string()));
  nulls_.Resize(size_ + 1);
  switch (encoding_) {
    case Encoding::kInt64:
      ints_.push_back(v.AsInt());
      UpdateIntStats(v.AsInt());
      break;
    case Encoding::kDouble:
      doubles_.push_back(v.AsDouble());
      UpdateDoubleStats(v.AsDouble());
      break;
    case Encoding::kDictString: {
      const std::string& s = v.AsString();
      auto it = dict_lookup_.find(s);
      uint32_t code;
      if (it != dict_lookup_.end()) {
        code = it->second;
      } else if (dict_size() >= kDictMaxDistinct) {
        ConvertDictToFlat();
        arena_.append(s);
        flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        UpdateStringStats(s);
        ++size_;
        return;
      } else {
        code = static_cast<uint32_t>(dict_size());
        arena_.append(s);
        dict_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        dict_lookup_.emplace(s, code);
      }
      codes_.push_back(code);
      UpdateStringStats(s);
      break;
    }
    case Encoding::kFlatString: {
      const std::string& s = v.AsString();
      arena_.append(s);
      flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      UpdateStringStats(s);
      break;
    }
  }
  ++size_;
}

void ColumnVector::UpdateIntStats(int64_t a) {
  if (!stats_valid_) {
    imin_ = imax_ = a;
    stats_valid_ = true;
  } else {
    if (a < imin_) imin_ = a;
    if (imax_ < a) imax_ = a;
  }
}

void ColumnVector::UpdateDoubleStats(double a) {
  if (!stats_valid_) {
    dmin_ = dmax_ = a;
    stats_valid_ = true;
  } else {
    // Strict < keeps the first of Compare-equal values (incl. NaN, which
    // Value::Compare treats as equal to everything).
    if (a < dmin_) dmin_ = a;
    if (dmax_ < a) dmax_ = a;
  }
}

void ColumnVector::UpdateStringStats(std::string_view s) {
  if (!stats_valid_) {
    smin_ = smax_ = s;
    stats_valid_ = true;
  } else {
    if (s.compare(smin_) < 0) smin_ = s;
    if (smax_.compare(s) < 0) smax_ = s;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (encoding_) {
    case Encoding::kInt64:
      return Value::Int(ints_[i]);
    case Encoding::kDouble:
      return Value::Double(doubles_[i]);
    case Encoding::kDictString:
    case Encoding::kFlatString:
      return Value::String(std::string(StringAt(i)));
  }
  return Value::Null();
}

bool ColumnVector::MinMax(Value* min, Value* max) const {
  if (!stats_valid_) return false;
  switch (encoding_) {
    case Encoding::kInt64:
      *min = Value::Int(imin_);
      *max = Value::Int(imax_);
      return true;
    case Encoding::kDouble:
      *min = Value::Double(dmin_);
      *max = Value::Double(dmax_);
      return true;
    case Encoding::kDictString:
    case Encoding::kFlatString:
      *min = Value::String(smin_);
      *max = Value::String(smax_);
      return true;
  }
  return false;
}

void ColumnVector::ConvertDictToFlat() {
  std::string arena;
  arena.reserve(arena_.size() * 2);
  std::vector<uint32_t> offsets;
  offsets.reserve(size_ + 2);
  offsets.push_back(0);
  for (size_t i = 0; i < size_; ++i) {
    if (!has_nulls_ || !nulls_.Test(i)) arena.append(DictString(codes_[i]));
    offsets.push_back(static_cast<uint32_t>(arena.size()));
  }
  arena_ = std::move(arena);
  flat_offsets_ = std::move(offsets);
  encoding_ = Encoding::kFlatString;
  codes_.clear();
  codes_.shrink_to_fit();
  dict_offsets_.clear();
  dict_offsets_.shrink_to_fit();
  dict_lookup_.clear();
}

void ColumnVector::Gather(const std::vector<uint32_t>& rows, size_t col,
                          std::vector<Tuple>* out) const {
  switch (encoding_) {
    case Encoding::kInt64:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::Int(ints_[r]);
      }
      break;
    case Encoding::kDouble:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::Double(doubles_[r]);
      }
      break;
    case Encoding::kDictString:
    case Encoding::kFlatString:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::String(std::string(StringAt(r)));
      }
      break;
  }
}

ColumnVector ColumnVector::CopyRows(const std::vector<uint32_t>& rows) const {
  const size_t n = rows.size();
  ColumnVector out(encoding_ == Encoding::kInt64    ? ValueType::kInt
                   : encoding_ == Encoding::kDouble ? ValueType::kDouble
                                                    : ValueType::kString);
  out.size_ = n;
  out.nulls_ = BitVector(n);
  // Whether copied cell k is NULL; carries the bit into `out`.
  auto null_copied = [&](size_t k) {
    if (!has_nulls_ || !nulls_.Test(rows[k])) return false;
    out.nulls_.Set(k);
    out.has_nulls_ = true;
    return true;
  };
  // NULL slots copy the source's 0 / 0.0 / empty-span payload.
  switch (encoding_) {
    case Encoding::kInt64:
      out.ints_.resize(n);
      for (size_t k = 0; k < n; ++k) {
        out.ints_[k] = ints_[rows[k]];
        if (!null_copied(k)) out.UpdateIntStats(out.ints_[k]);
      }
      break;
    case Encoding::kDouble:
      out.doubles_.resize(n);
      for (size_t k = 0; k < n; ++k) {
        out.doubles_[k] = doubles_[rows[k]];
        if (!null_copied(k)) out.UpdateDoubleStats(out.doubles_[k]);
      }
      break;
    case Encoding::kDictString: {
      constexpr uint32_t kUnused = UINT32_MAX;
      std::vector<uint32_t> remap(dict_size(), kUnused);
      out.codes_.resize(n);
      for (size_t k = 0; k < n; ++k) {
        if (null_copied(k)) continue;  // code 0, as AppendNullSlot leaves it
        uint32_t& code = remap[codes_[rows[k]]];
        if (code == kUnused) {
          // First use: the distinct value enters the new dictionary (and
          // the zone accumulators, which only see distinct strings anyway).
          std::string_view s = DictString(codes_[rows[k]]);
          code = static_cast<uint32_t>(out.dict_size());
          out.arena_.append(s);
          out.dict_offsets_.push_back(static_cast<uint32_t>(out.arena_.size()));
          out.dict_lookup_.emplace(std::string(s), code);
          out.UpdateStringStats(s);
        }
        out.codes_[k] = code;
      }
      break;
    }
    case Encoding::kFlatString:
      out.encoding_ = Encoding::kFlatString;
      out.dict_offsets_.clear();
      out.flat_offsets_.reserve(n + 1);
      out.flat_offsets_.push_back(0);
      for (size_t k = 0; k < n; ++k) {
        if (!null_copied(k)) {
          std::string_view s = StringAt(rows[k]);
          out.arena_.append(s);
          out.UpdateStringStats(s);
        }
        out.flat_offsets_.push_back(static_cast<uint32_t>(out.arena_.size()));
      }
      break;
  }
  return out;
}

size_t ColumnVector::MemoryBytes() const {
  size_t bytes = nulls_.MemoryBytes();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += arena_.capacity() > sizeof(std::string) ? arena_.capacity() : 0;
  bytes += codes_.capacity() * sizeof(uint32_t);
  bytes += dict_offsets_.capacity() * sizeof(uint32_t);
  bytes += flat_offsets_.capacity() * sizeof(uint32_t);
  for (const auto& [key, code] : dict_lookup_) {
    (void)code;
    bytes += sizeof(std::pair<const std::string, uint32_t>);
    if (key.capacity() > sizeof(std::string)) bytes += key.capacity();
  }
  return bytes;
}

}  // namespace imp
