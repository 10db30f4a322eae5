#include "agg/agg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace adv::agg {

namespace {

constexpr uint64_t kCountLimit = uint64_t{1} << 53;

// --- little-endian byte codec ---------------------------------------------

void put_u8(std::string& s, uint8_t v) { s.push_back(static_cast<char>(v)); }

template <typename T>
void put_le(std::string& s, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  s.append(buf, sizeof(T));
}

struct Reader {
  const uint8_t* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (left < n) throw QueryError("malformed aggregate state: truncated");
  }
  uint8_t u8() {
    need(1);
    --left;
    return *p++;
  }
  template <typename T>
  T le() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
};

// State kind tags leading every encoded state.
constexpr uint8_t kKindTable = 1;
constexpr uint8_t kKindTopK = 2;

void encode_sum(std::string& out, const ExactSum& sum) {
  ExactSum t = sum;
  t.normalize();
  uint8_t flags = 0;
  if (t.saw_nan) flags |= 1;
  if (t.saw_pinf) flags |= 2;
  if (t.saw_ninf) flags |= 4;
  put_u8(out, flags);
  uint8_t nnz = 0;
  for (int i = 0; i < ExactSum::kLimbs; ++i)
    if (t.limb[i] != 0) ++nnz;
  put_u8(out, nnz);
  for (int i = 0; i < ExactSum::kLimbs; ++i) {
    if (t.limb[i] == 0) continue;
    put_u8(out, static_cast<uint8_t>(i));
    put_le<int64_t>(out, t.limb[i]);
  }
}

ExactSum decode_sum(Reader& r) {
  ExactSum s;
  const uint8_t flags = r.u8();
  s.saw_nan = flags & 1;
  s.saw_pinf = flags & 2;
  s.saw_ninf = flags & 4;
  const uint8_t nnz = r.u8();
  for (uint8_t i = 0; i < nnz; ++i) {
    const uint8_t idx = r.u8();
    if (idx >= ExactSum::kLimbs)
      throw QueryError("malformed aggregate state: limb index out of range");
    s.limb[idx] = r.le<int64_t>();
  }
  return s;
}

void encode_item(std::string& out, sql::AggFn fn, const ItemState& st) {
  switch (fn) {
    case sql::AggFn::kCount:
      put_le<uint64_t>(out, st.count);
      break;
    case sql::AggFn::kSum:
      encode_sum(out, st.sum);
      break;
    case sql::AggFn::kAvg:
      put_le<uint64_t>(out, st.count);
      encode_sum(out, st.sum);
      break;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      put_u8(out, st.mm_seen ? 1 : 0);
      put_le<double>(out, st.mm);
      break;
    case sql::AggFn::kNone:
      throw InternalError("encode_item on a non-aggregate select item");
  }
}

ItemState decode_item(Reader& r, sql::AggFn fn) {
  ItemState st;
  switch (fn) {
    case sql::AggFn::kCount:
      st.count = r.le<uint64_t>();
      break;
    case sql::AggFn::kSum:
      st.sum = decode_sum(r);
      break;
    case sql::AggFn::kAvg:
      st.count = r.le<uint64_t>();
      st.sum = decode_sum(r);
      break;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      st.mm_seen = r.u8() != 0;
      st.mm = r.le<double>();
      break;
    case sql::AggFn::kNone:
      throw QueryError("malformed aggregate state: kNone item");
  }
  return st;
}

bool valid_fn(uint8_t v) {
  return v >= static_cast<uint8_t>(sql::AggFn::kCount) &&
         v <= static_cast<uint8_t>(sql::AggFn::kAvg);
}

}  // namespace

double canon(double v) {
  if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) return 0.0;
  return v;
}

uint64_t order_bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits >> 63) ? ~bits : bits | (uint64_t{1} << 63);
}

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kDense: return "dense";
    case Strategy::kHash: return "hash";
    case Strategy::kRadix: return "radix";
  }
  return "?";
}

// --- ItemState -------------------------------------------------------------

void ItemState::fold(sql::AggFn fn, double v) {
  switch (fn) {
    case sql::AggFn::kCount:
      ++count;
      return;
    case sql::AggFn::kSum:
      sum.add(v);
      return;
    case sql::AggFn::kAvg:
      sum.add(v);
      ++count;
      return;
    case sql::AggFn::kMin: {
      if (std::isnan(v)) return;  // NaN never wins MIN/MAX
      const double c = canon(v);
      if (!mm_seen || c < mm) mm = c;
      mm_seen = true;
      return;
    }
    case sql::AggFn::kMax: {
      if (std::isnan(v)) return;
      const double c = canon(v);
      if (!mm_seen || c > mm) mm = c;
      mm_seen = true;
      return;
    }
    case sql::AggFn::kNone:
      return;
  }
}

void ItemState::merge(sql::AggFn fn, const ItemState& o) {
  switch (fn) {
    case sql::AggFn::kCount:
      count += o.count;
      return;
    case sql::AggFn::kSum:
      sum.merge(o.sum);
      return;
    case sql::AggFn::kAvg:
      count += o.count;
      sum.merge(o.sum);
      return;
    case sql::AggFn::kMin:
      if (o.mm_seen && (!mm_seen || o.mm < mm)) mm = o.mm;
      mm_seen = mm_seen || o.mm_seen;
      return;
    case sql::AggFn::kMax:
      if (o.mm_seen && (!mm_seen || o.mm > mm)) mm = o.mm;
      mm_seen = mm_seen || o.mm_seen;
      return;
    case sql::AggFn::kNone:
      return;
  }
}

double ItemState::finalize(sql::AggFn fn) const {
  switch (fn) {
    case sql::AggFn::kCount:
      if (count > kCountLimit)
        throw QueryError("COUNT overflow: " + std::to_string(count) +
                         " rows exceeds 2^53 (not exactly representable)");
      return static_cast<double>(count);
    case sql::AggFn::kSum:
      return sum.finalize();
    case sql::AggFn::kAvg:
      if (count == 0) return std::numeric_limits<double>::quiet_NaN();
      if (count > kCountLimit)
        throw QueryError("AVG overflow: " + std::to_string(count) +
                         " rows exceeds 2^53 (not exactly representable)");
      return sum.finalize() / static_cast<double>(count);
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      return mm_seen ? mm : std::numeric_limits<double>::quiet_NaN();
    case sql::AggFn::kNone:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// --- GroupTable ------------------------------------------------------------

GroupTable::GroupTable(std::size_t nkeys, std::size_t nitems)
    : nkeys_(nkeys), nitems_(nitems), index_(16, 0) {}

uint64_t GroupTable::hash_keys(const double* keys, std::size_t nkeys) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the canonical key bits
  for (std::size_t k = 0; k < nkeys; ++k) {
    uint64_t bits;
    std::memcpy(&bits, &keys[k], sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

void GroupTable::rehash(std::size_t cap) {
  index_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::size_t g = 0; g < ngroups_; ++g) {
    std::size_t i = hash_keys(key(g), nkeys_) & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<uint32_t>(g) + 1;
  }
}

ItemState* GroupTable::find_or_insert(const double* keys) {
  // Keep load under 0.7 so probes stay short.
  if ((ngroups_ + 1) * 10 >= index_.size() * 7) rehash(index_.size() * 2);
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash_keys(keys, nkeys_) & mask;
  for (;;) {
    const uint32_t slot = index_[i];
    if (slot == 0) {
      index_[i] = static_cast<uint32_t>(ngroups_) + 1;
      keys_.insert(keys_.end(), keys, keys + nkeys_);
      states_.resize(states_.size() + nitems_);
      return states_.data() + (ngroups_++) * nitems_;
    }
    // A global aggregate has no key bytes, and its empty key store has no
    // storage, which memcmp may not be handed even for length 0.
    if (nkeys_ == 0 ||
        std::memcmp(key(slot - 1), keys, nkeys_ * sizeof(double)) == 0)
      return states_.data() + (slot - 1) * nitems_;
    i = (i + 1) & mask;
  }
}

// --- AggTable --------------------------------------------------------------

AggTable::AggTable(AggShape shape, StrategyChoice choice)
    : shape_(std::move(shape)),
      choice_(choice),
      active_(choice.strategy) {
  if (active_ == Strategy::kDense) {
    const int64_t width = choice_.dense_hi - choice_.dense_lo + 1;
    if (width < 1 || width * static_cast<int64_t>(
                                 std::max<std::size_t>(shape_.nitems(), 1)) >
                         kDenseCellBudget)
      throw InternalError("dense aggregation domain exceeds the cell budget");
    dense_.resize(static_cast<std::size_t>(width) * shape_.nitems());
    present_.assign(static_cast<std::size_t>(width), 0);
    spill_ = std::make_unique<GroupTable>(shape_.nkeys, shape_.nitems());
  } else if (active_ == Strategy::kRadix) {
    parts_.reserve(kRadixParts);
    for (int i = 0; i < kRadixParts; ++i)
      parts_.emplace_back(shape_.nkeys, shape_.nitems());
  } else {
    parts_.emplace_back(shape_.nkeys, shape_.nitems());
  }
}

std::size_t AggTable::part_of(const double* keys) const {
  return static_cast<std::size_t>(
      GroupTable::hash_keys(keys, shape_.nkeys) >> 60);
}

void AggTable::upgrade_to_radix() {
  std::vector<GroupTable> parts;
  parts.reserve(kRadixParts);
  for (int i = 0; i < kRadixParts; ++i)
    parts.emplace_back(shape_.nkeys, shape_.nitems());
  const GroupTable& old = parts_[0];
  for (std::size_t g = 0; g < old.ngroups(); ++g) {
    const double* k = old.key(g);
    ItemState* dst =
        parts[GroupTable::hash_keys(k, shape_.nkeys) >> 60].find_or_insert(k);
    const ItemState* src = old.states(g);
    for (std::size_t j = 0; j < shape_.nitems(); ++j) dst[j] = src[j];
  }
  parts_ = std::move(parts);
  active_ = Strategy::kRadix;
}

ItemState* AggTable::find_or_insert(const double* keys) {
  if (active_ == Strategy::kDense) {
    const double v = keys[0];
    // Runtime guard: the hull estimate is advisory — anything outside the
    // dense domain (or not exactly integral) spills to the hash table.
    if (v >= static_cast<double>(choice_.dense_lo) &&
        v <= static_cast<double>(choice_.dense_hi) &&
        v == std::floor(v)) {
      const std::size_t idx =
          static_cast<std::size_t>(static_cast<int64_t>(v) - choice_.dense_lo);
      if (!present_[idx]) {
        present_[idx] = 1;
        ++dense_groups_;
      }
      return dense_.data() + idx * shape_.nitems();
    }
    return spill_->find_or_insert(keys);
  }
  // Upgrade *before* the lookup so the returned pointer stays valid while
  // the caller folds into it.
  if (active_ == Strategy::kHash &&
      parts_[0].ngroups() >= kRadixUpgradeGroups)
    upgrade_to_radix();
  GroupTable& t =
      active_ == Strategy::kRadix ? parts_[part_of(keys)] : parts_[0];
  return t.find_or_insert(keys);
}

uint64_t AggTable::ngroups() const {
  if (active_ == Strategy::kDense) return dense_groups_ + spill_->ngroups();
  uint64_t n = 0;
  for (const auto& p : parts_) n += p.ngroups();
  return n;
}

void AggTable::for_each_group(
    const std::function<void(const double*, const ItemState*)>& fn) const {
  if (active_ == Strategy::kDense) {
    double key = 0;
    for (std::size_t idx = 0; idx < present_.size(); ++idx) {
      if (!present_[idx]) continue;
      key = static_cast<double>(choice_.dense_lo + static_cast<int64_t>(idx));
      fn(&key, dense_.data() + idx * shape_.nitems());
    }
    for (std::size_t g = 0; g < spill_->ngroups(); ++g)
      fn(spill_->key(g), spill_->states(g));
    return;
  }
  for (const auto& p : parts_)
    for (std::size_t g = 0; g < p.ngroups(); ++g) fn(p.key(g), p.states(g));
}

void AggTable::merge(const AggTable& o) {
  if (!(shape_ == o.shape_))
    throw InternalError("merging aggregate tables of different shapes");
  o.for_each_group([&](const double* keys, const ItemState* st) {
    ItemState* dst = find_or_insert(keys);
    for (std::size_t j = 0; j < shape_.nitems(); ++j)
      dst[j].merge(shape_.fns[j], st[j]);
  });
}

void AggTable::encode(std::string& out) const {
  put_u8(out, kKindTable);
  put_le<uint16_t>(out, shape_.nkeys);
  put_le<uint16_t>(out, static_cast<uint16_t>(shape_.nitems()));
  for (sql::AggFn fn : shape_.fns) put_u8(out, static_cast<uint8_t>(fn));
  put_le<uint64_t>(out, ngroups());
  for_each_group([&](const double* keys, const ItemState* st) {
    for (uint16_t k = 0; k < shape_.nkeys; ++k) put_le<double>(out, keys[k]);
    for (std::size_t j = 0; j < shape_.nitems(); ++j)
      encode_item(out, shape_.fns[j], st[j]);
  });
}

void AggTable::merge_encoded(const uint8_t* data, std::size_t size) {
  Reader r{data, size};
  if (r.u8() != kKindTable)
    throw QueryError("malformed aggregate state: expected a group table");
  const uint16_t nkeys = r.le<uint16_t>();
  const uint16_t nitems = r.le<uint16_t>();
  if (nkeys != shape_.nkeys || nitems != shape_.nitems())
    throw QueryError("aggregate state shape mismatch");
  for (uint16_t j = 0; j < nitems; ++j) {
    const uint8_t fn = r.u8();
    if (!valid_fn(fn) || static_cast<sql::AggFn>(fn) != shape_.fns[j])
      throw QueryError("aggregate state shape mismatch");
  }
  const uint64_t ngroups = r.le<uint64_t>();
  std::vector<double> keys(nkeys);
  for (uint64_t g = 0; g < ngroups; ++g) {
    for (uint16_t k = 0; k < nkeys; ++k) keys[k] = canon(r.le<double>());
    ItemState* dst = find_or_insert(keys.data());
    for (uint16_t j = 0; j < nitems; ++j) {
      const ItemState st = decode_item(r, shape_.fns[j]);
      dst[j].merge(shape_.fns[j], st);
    }
  }
}

// --- TopK ------------------------------------------------------------------

TopK::TopK(int ncols, std::vector<expr::OrderKeyRef> order, int64_t limit)
    : ncols_(ncols), order_(std::move(order)), limit_(limit) {
  if (ncols_ <= 0) throw InternalError("TopK needs at least one column");
  for (const auto& k : order_)
    if (k.col < 0 || k.col >= ncols_)
      throw InternalError("TopK order key out of range");
}

bool TopK::before(const double* a, const double* b) const {
  for (const auto& k : order_) {
    const uint64_t oa = order_bits(a[k.col]);
    const uint64_t ob = order_bits(b[k.col]);
    if (oa != ob) return k.desc ? oa > ob : oa < ob;
  }
  // Whole-row lexicographic tie-break: makes the order total over distinct
  // rows, so the k "smallest" are a deterministic set.
  for (int c = 0; c < ncols_; ++c) {
    const uint64_t oa = order_bits(a[c]);
    const uint64_t ob = order_bits(b[c]);
    if (oa != ob) return oa < ob;
  }
  return false;
}

void TopK::swap_rows(std::size_t a, std::size_t b) {
  const std::size_t w = static_cast<std::size_t>(ncols_);
  std::swap_ranges(rows_.begin() + a * w, rows_.begin() + (a + 1) * w,
                   rows_.begin() + b * w);
}

void TopK::sift_up(std::size_t i) {
  const std::size_t w = static_cast<std::size_t>(ncols_);
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (!before(&rows_[p * w], &rows_[i * w])) break;
    swap_rows(p, i);
    i = p;
  }
}

void TopK::sift_down(std::size_t i, std::size_t n) {
  const std::size_t w = static_cast<std::size_t>(ncols_);
  for (;;) {
    std::size_t largest = i;
    for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < n; ++c)
      if (before(&rows_[largest * w], &rows_[c * w])) largest = c;
    if (largest == i) return;
    swap_rows(i, largest);
    i = largest;
  }
}

void TopK::add(const double* row) {
  const std::size_t w = static_cast<std::size_t>(ncols_);
  if (limit_ < 0) {
    rows_.insert(rows_.end(), row, row + w);
    return;
  }
  if (limit_ == 0) return;
  const std::size_t n = nrows();
  if (static_cast<int64_t>(n) < limit_) {
    rows_.insert(rows_.end(), row, row + w);
    sift_up(n);
    return;
  }
  // Full: the root is the worst retained row; replace it if the new row
  // orders before it.
  if (before(row, rows_.data())) {
    std::copy(row, row + w, rows_.begin());
    sift_down(0, n);
  }
}

void TopK::merge(const TopK& o) {
  if (o.ncols_ != ncols_)
    throw InternalError("merging top-k states of different widths");
  const std::size_t w = static_cast<std::size_t>(ncols_);
  for (std::size_t i = 0; i < o.nrows(); ++i) add(o.rows_.data() + i * w);
}

std::vector<double> TopK::sorted_rows() const {
  std::vector<double> flat = rows_;
  sort_limit_rows(flat, ncols_, order_, limit_);
  return flat;
}

void TopK::encode(std::string& out) const {
  put_u8(out, kKindTopK);
  put_le<uint16_t>(out, static_cast<uint16_t>(ncols_));
  put_le<uint64_t>(out, nrows());
  for (double v : rows_) put_le<double>(out, v);
}

void TopK::merge_encoded(const uint8_t* data, std::size_t size) {
  Reader r{data, size};
  if (r.u8() != kKindTopK)
    throw QueryError("malformed aggregate state: expected top-k rows");
  const uint16_t ncols = r.le<uint16_t>();
  if (ncols != ncols_) throw QueryError("top-k state width mismatch");
  const uint64_t n = r.le<uint64_t>();
  std::vector<double> row(ncols_);
  for (uint64_t i = 0; i < n; ++i) {
    for (int c = 0; c < ncols_; ++c) row[c] = r.le<double>();
    add(row.data());
  }
}

// --- finalization ----------------------------------------------------------

void sort_limit_rows(std::vector<double>& flat, int ncols,
                     const std::vector<expr::OrderKeyRef>& order,
                     int64_t limit) {
  if (ncols <= 0) {
    flat.clear();
    return;
  }
  const std::size_t w = static_cast<std::size_t>(ncols);
  const std::size_t n = flat.size() / w;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const auto before = [&](std::size_t ia, std::size_t ib) {
    const double* a = flat.data() + ia * w;
    const double* b = flat.data() + ib * w;
    for (const auto& k : order) {
      const uint64_t oa = order_bits(a[k.col]);
      const uint64_t ob = order_bits(b[k.col]);
      if (oa != ob) return k.desc ? oa > ob : oa < ob;
    }
    for (int c = 0; c < ncols; ++c) {
      const uint64_t oa = order_bits(a[c]);
      const uint64_t ob = order_bits(b[c]);
      if (oa != ob) return oa < ob;
    }
    return false;
  };
  std::sort(perm.begin(), perm.end(), before);
  std::size_t keep = n;
  if (limit >= 0) keep = std::min<std::size_t>(keep, static_cast<std::size_t>(limit));
  std::vector<double> out;
  out.reserve(keep * w);
  for (std::size_t i = 0; i < keep; ++i)
    out.insert(out.end(), flat.data() + perm[i] * w,
               flat.data() + (perm[i] + 1) * w);
  flat = std::move(out);
}

FinalizeSpec finalize_spec(const expr::BoundQuery& q) {
  FinalizeSpec spec;
  spec.grouped = q.has_aggregates();
  spec.order = q.order_keys();
  spec.limit = q.limit();
  if (spec.grouped) {
    spec.shape.nkeys = static_cast<uint16_t>(q.group_key_cols().size());
    for (const auto& it : q.agg_items()) spec.shape.fns.push_back(it.fn);
    spec.out = q.output_cols();
    spec.ncols = static_cast<int>(spec.out.size());
  } else {
    spec.ncols = static_cast<int>(q.result_columns().size());
  }
  return spec;
}

FinalizeSpec finalize_spec(const sql::SelectQuery& q,
                           const std::vector<std::string>& col_names) {
  FinalizeSpec spec;
  spec.grouped = q.has_aggregates();
  spec.limit = q.limit;
  std::vector<std::string> out_names;
  if (spec.grouped) {
    spec.shape.nkeys = static_cast<uint16_t>(q.group_by.size());
    for (const auto& it : q.items) {
      if (it.fn == sql::AggFn::kNone) {
        int key = -1;
        for (std::size_t k = 0; k < q.group_by.size(); ++k)
          if (q.group_by[k] == it.attr) key = static_cast<int>(k);
        if (key < 0)
          throw QueryError("select item '" + it.attr +
                           "' must appear in GROUP BY or be aggregated");
        spec.out.push_back({false, key});
      } else {
        spec.out.push_back({true, static_cast<int>(spec.shape.fns.size())});
        spec.shape.fns.push_back(it.fn);
      }
      out_names.push_back(it.to_string());
    }
    spec.ncols = static_cast<int>(spec.out.size());
  } else {
    if (!q.items.empty())
      for (const auto& it : q.items) out_names.push_back(it.to_string());
    else if (!q.select_attrs.empty())
      out_names = q.select_attrs;
    else
      out_names = col_names;  // SELECT *: caller supplies the schema names
    spec.ncols = static_cast<int>(out_names.size());
    if (spec.ncols == 0)
      throw QueryError(
          "cannot derive the output columns of a SELECT * top-k query "
          "without result column names");
  }
  for (const auto& o : q.order_by) {
    const std::string want = o.key.to_string();
    int col = -1;
    for (std::size_t c = 0; c < out_names.size(); ++c)
      if (out_names[c] == want) col = static_cast<int>(c);
    if (col < 0)
      throw QueryError("ORDER BY key '" + want +
                       "' must appear in the select list");
    spec.order.push_back({col, o.desc});
  }
  return spec;
}

MergeAcc::MergeAcc(FinalizeSpec spec) : spec_(std::move(spec)) {
  if (spec_.grouped) {
    StrategyChoice choice;  // hash with runtime radix upgrade
    tab_ = std::make_unique<AggTable>(spec_.shape, choice);
  } else {
    topk_ = std::make_unique<TopK>(spec_.ncols, spec_.order, spec_.limit);
  }
}

void MergeAcc::merge_encoded(const uint8_t* data, std::size_t size) {
  if (tab_) tab_->merge_encoded(data, size);
  else topk_->merge_encoded(data, size);
}

void MergeAcc::merge_encoded(const std::string& bytes) {
  merge_encoded(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

uint64_t MergeAcc::ngroups() const {
  return tab_ ? tab_->ngroups() : topk_->nrows();
}

std::vector<double> MergeAcc::finalize_rows() const {
  if (!tab_) return topk_->sorted_rows();
  if (spec_.shape.nkeys == 0 && tab_->ngroups() == 0) {
    // Global aggregate over empty input: SQL still yields one row — COUNT 0,
    // SUM +0.0, AVG/MIN/MAX NaN (docs/AGGREGATION.md).
    std::vector<double> row;
    const ItemState empty{};
    for (const auto& o : spec_.out)
      row.push_back(empty.finalize(spec_.shape.fns[o.index]));
    return row;
  }
  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(tab_->ngroups()) * spec_.ncols);
  tab_->for_each_group([&](const double* keys, const ItemState* st) {
    for (const auto& o : spec_.out)
      flat.push_back(o.is_agg ? st[o.index].finalize(spec_.shape.fns[o.index])
                              : keys[o.index]);
  });
  sort_limit_rows(flat, spec_.ncols, spec_.order, spec_.limit);
  return flat;
}

// --- strategy selection ----------------------------------------------------

namespace {

struct Hull {
  bool known = false;
  double lo = 0, hi = 0;

  void widen(double a, double b) {
    if (!known) {
      lo = std::min(a, b);
      hi = std::max(a, b);
      known = true;
    } else {
      lo = std::min(lo, std::min(a, b));
      hi = std::max(hi, std::max(a, b));
    }
  }
};

void widen_range(Hull& h, const layout::EvalRange& r) {
  if (r.count() == 0) return;
  const int64_t last = r.lo + (static_cast<int64_t>(r.count()) - 1) * r.step;
  h.widen(static_cast<double>(r.lo), static_cast<double>(last));
}

}  // namespace

StrategyChoice choose_strategy(const expr::BoundQuery& q,
                               const afc::PlanResult& plan,
                               const afc::ChunkBoundsSource* bounds) {
  StrategyChoice choice;
  if (q.group_key_attrs().size() != 1) return choice;
  const int key = q.group_key_attrs()[0];
  if (!is_integral(q.schema().at(static_cast<std::size_t>(key)).type))
    return choice;

  // Index of the key attribute in the zone map's bounds, if covered.
  int zm_idx = -1;
  if (bounds) {
    const auto& attrs = bounds->bounds_attrs();
    for (std::size_t i = 0; i < attrs.size(); ++i)
      if (attrs[i] == key) zm_idx = static_cast<int>(i);
  }

  Hull hull;
  std::vector<std::pair<double, double>> zb;
  std::size_t lookups = 0;
  constexpr std::size_t kMaxLookups = 65536;
  for (const auto& gp : plan.groups) {
    Hull gh;  // hull of the key within this group
    for (const auto& l : gp.loops)
      if (l.attr == key) widen_range(gh, l.range);
    for (const auto& ci : gp.const_implicits)
      if (ci.first == key) gh.widen(ci.second, ci.second);
    if (gp.row_attr == key) widen_range(gh, gp.row_range);
    if (!gh.known) {
      // The key must be a stored field here; only the zone map can bound it.
      if (zm_idx < 0) return choice;
      const std::size_t gidx = static_cast<std::size_t>(&gp - plan.groups.data());
      for (const auto& afc : plan.afcs) {
        if (static_cast<std::size_t>(afc.group) != gidx) continue;
        for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
          bool has_key = false;
          for (const auto& f : gp.chunks[c].fields) has_key = has_key || f.attr == key;
          if (!has_key) continue;
          if (++lookups > kMaxLookups) return choice;
          if (!bounds->chunk_bounds(gp.files[gp.chunks[c].file],
                                    afc.offsets[c], zb))
            return choice;
          gh.widen(zb[zm_idx].first, zb[zm_idx].second);
        }
      }
      if (!gh.known) return choice;  // no bound found: stay with hash
    }
    hull.widen(gh.lo, gh.hi);
  }
  if (!hull.known) return choice;  // empty plan: any strategy is fine

  // The WHERE clause can only shrink the key domain.
  const expr::Interval& qi =
      q.intervals().interval(static_cast<std::size_t>(key));
  const double lo = std::max(hull.lo, qi.lo);
  const double hi = std::min(hull.hi, qi.hi);
  if (!(lo <= hi)) return choice;  // contradictory: no rows, hash is fine
  if (!std::isfinite(lo) || !std::isfinite(hi)) return choice;

  const double lo_i = std::ceil(lo);
  const double hi_i = std::floor(hi);
  constexpr double kMaxDomain = 1e15;
  if (lo_i > hi_i || hi_i - lo_i > kMaxDomain) return choice;
  const int64_t width = static_cast<int64_t>(hi_i) - static_cast<int64_t>(lo_i) + 1;
  const int64_t nitems =
      static_cast<int64_t>(std::max<std::size_t>(q.agg_items().size(), 1));
  choice.est_groups = static_cast<double>(width);
  if (width * nitems <= kDenseCellBudget) {
    choice.strategy = Strategy::kDense;
    choice.dense_lo = static_cast<int64_t>(lo_i);
    choice.dense_hi = static_cast<int64_t>(hi_i);
  } else if (static_cast<uint64_t>(width) > kRadixUpgradeGroups) {
    choice.strategy = Strategy::kRadix;
  }
  return choice;
}

// --- PushdownSink ----------------------------------------------------------

PushdownSink::PushdownSink(const expr::BoundQuery& q,
                           const StrategyChoice& choice)
    : q_(&q), choice_(choice), grouped_(q.has_aggregates()) {
  if (grouped_) {
    AggShape shape;
    shape.nkeys = static_cast<uint16_t>(q.group_key_cols().size());
    for (const auto& it : q.agg_items()) shape.fns.push_back(it.fn);
    keybuf_.resize(shape.nkeys);
    main_tab_ = std::make_unique<AggTable>(shape, choice_);
    delta_tab_ = std::make_unique<AggTable>(shape, choice_);
  } else {
    const int ncols = static_cast<int>(q.select_slots().size());
    main_topk_ = std::make_unique<TopK>(ncols, q.order_keys(), q.limit());
    delta_topk_ = std::make_unique<TopK>(ncols, q.order_keys(), q.limit());
  }
}

PushdownSink::~PushdownSink() = default;

void PushdownSink::begin_afc() {
  if (grouped_) {
    main_tab_->merge(*delta_tab_);
    delta_tab_ = std::make_unique<AggTable>(main_tab_->shape(), choice_);
  } else {
    main_topk_->merge(*delta_topk_);
    delta_topk_ = std::make_unique<TopK>(main_topk_->ncols(), q_->order_keys(),
                                         q_->limit());
  }
}

bool PushdownSink::rollback_afc() {
  // Nothing has left the worker: discarding the delta fully undoes the AFC.
  if (grouped_)
    delta_tab_ = std::make_unique<AggTable>(main_tab_->shape(), choice_);
  else
    delta_topk_ = std::make_unique<TopK>(main_topk_->ncols(), q_->order_keys(),
                                         q_->limit());
  return true;
}

void PushdownSink::finish() { begin_afc(); }

void PushdownSink::on_row(const double* vals, uint64_t) {
  ++rows_folded_;
  if (!grouped_) {
    delta_topk_->add(vals);
    return;
  }
  const auto& key_cols = q_->group_key_cols();
  for (std::size_t k = 0; k < key_cols.size(); ++k)
    keybuf_[k] = canon(vals[key_cols[k]]);
  ItemState* st = delta_tab_->find_or_insert(keybuf_.data());
  const auto& items = q_->agg_items();
  for (std::size_t j = 0; j < items.size(); ++j) {
    // COUNT (including COUNT(*)) never evaluates its argument.
    if (items[j].fn == sql::AggFn::kCount) st[j].fold(items[j].fn, 0);
    else st[j].fold(items[j].fn, items[j].input.eval(vals));
  }
}

void PushdownSink::on_rows(const double* rows, std::size_t ncols,
                           std::size_t nrows, const uint64_t*) {
  for (std::size_t i = 0; i < nrows; ++i) on_row(rows + i * ncols, 0);
}

void PushdownSink::merge_into(PushdownSink& dst) const {
  if (grouped_) dst.main_tab_->merge(*main_tab_);
  else dst.main_topk_->merge(*main_topk_);
}

void PushdownSink::encode(std::string& out) const {
  if (grouped_) main_tab_->encode(out);
  else main_topk_->encode(out);
}

}  // namespace adv::agg
