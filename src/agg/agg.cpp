#include "agg/agg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
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
    // Encoded limbs are normalized; ExactSum::merge relies on it.
    if (idx < ExactSum::kLimbs - 1 &&
        (s.limb[idx] < 0 || s.limb[idx] > int64_t{0xffffffff}))
      throw QueryError("malformed aggregate state: limb not normalized");
  }
  return s;
}

void encode_item(std::string& out, const ItemColumn& c, std::size_t g) {
  switch (c.fn) {
    case sql::AggFn::kCount:
      put_le<uint64_t>(out, c.count[g]);
      break;
    case sql::AggFn::kSum:
      encode_sum(out, c.sum[g]);
      break;
    case sql::AggFn::kAvg:
      put_le<uint64_t>(out, c.count[g]);
      encode_sum(out, c.sum[g]);
      break;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      put_u8(out, c.seen[g]);
      put_le<double>(out, c.mm[g]);
      break;
    case sql::AggFn::kNone:
      throw InternalError("encode_item on a non-aggregate select item");
  }
}

// Decodes one item state and merges it into group g of `c`.
void merge_decoded_item(Reader& r, ItemColumn& c, std::size_t g) {
  switch (c.fn) {
    case sql::AggFn::kCount:
      c.count[g] += r.le<uint64_t>();
      break;
    case sql::AggFn::kSum:
      c.sum[g].merge(decode_sum(r));
      break;
    case sql::AggFn::kAvg:
      c.count[g] += r.le<uint64_t>();
      c.sum[g].merge(decode_sum(r));
      break;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax: {
      const bool seen = r.u8() != 0;
      c.merge_extreme(g, seen, r.le<double>());
      break;
    }
    case sql::AggFn::kNone:
      throw QueryError("malformed aggregate state: kNone item");
  }
}

// Folds value(i) into group ids[i] of `c` for every row i < n.  COUNT
// never evaluates its argument, so callers handle it without `value`.
// The arrays are read through locals: the byte stores to `seen` may
// alias anything, which would otherwise reload every pointer per row.
template <typename Value>
void fold_values(ItemColumn& c, const uint32_t* ids, std::size_t n,
                 Value value) {
  ExactSum* sum = c.sum.data();
  uint64_t* count = c.count.data();
  double* mm = c.mm.data();
  uint8_t* seen = c.seen.data();
  const auto extreme = [&](auto better) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = value(i);
      if (std::isnan(v)) continue;  // NaN never wins MIN/MAX
      const double k = canon(v);
      const uint32_t g = ids[i];
      if (!seen[g] || better(k, mm[g])) {
        mm[g] = k;
        seen[g] = 1;
      }
    }
  };
  switch (c.fn) {
    case sql::AggFn::kSum:
      for (std::size_t i = 0; i < n; ++i) sum[ids[i]].add(value(i));
      return;
    case sql::AggFn::kAvg:
      for (std::size_t i = 0; i < n; ++i) {
        sum[ids[i]].add(value(i));
        ++count[ids[i]];
      }
      return;
    case sql::AggFn::kMin:
      extreme(std::less<double>());
      return;
    case sql::AggFn::kMax:
      extreme(std::greater<double>());
      return;
    case sql::AggFn::kCount:
    case sql::AggFn::kNone:
      return;
  }
}

// Bitwise equality of two canonical key tuples.
bool same_keys(const double* a, const double* b, std::size_t nkeys) {
  for (std::size_t k = 0; k < nkeys; ++k) {
    uint64_t x, y;
    std::memcpy(&x, &a[k], sizeof x);
    std::memcpy(&y, &b[k], sizeof y);
    if (x != y) return false;
  }
  return true;
}

// Hash of a canonical key tuple: the splitmix64 finalizer over each key
// in turn.  The top bits route radix partitions and the low bits pick the
// slot, so every key bit must reach both.
uint64_t hash_keys(const double* keys, std::size_t nkeys) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t k = 0; k < nkeys; ++k) {
    uint64_t bits;
    std::memcpy(&bits, &keys[k], sizeof bits);
    h ^= bits;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
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

// --- ItemColumn ------------------------------------------------------------

void ItemColumn::resize(std::size_t ngroups) {
  switch (fn) {
    case sql::AggFn::kCount:
      count.resize(ngroups);
      return;
    case sql::AggFn::kSum:
      sum.resize(ngroups);
      return;
    case sql::AggFn::kAvg:
      count.resize(ngroups);
      sum.resize(ngroups);
      return;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      mm.resize(ngroups);
      seen.resize(ngroups);
      return;
    case sql::AggFn::kNone:
      return;
  }
}

void ItemColumn::clear(std::size_t g) {
  if (!count.empty()) count[g] = 0;
  if (!sum.empty()) sum[g] = ExactSum{};
  if (!mm.empty()) {
    mm[g] = 0;
    seen[g] = 0;
  }
}

void ItemColumn::merge(std::size_t g, const ItemColumn& o, std::size_t og) {
  switch (fn) {
    case sql::AggFn::kCount:
      count[g] += o.count[og];
      return;
    case sql::AggFn::kSum:
      sum[g].merge(o.sum[og]);
      return;
    case sql::AggFn::kAvg:
      count[g] += o.count[og];
      sum[g].merge(o.sum[og]);
      return;
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      merge_extreme(g, o.seen[og] != 0, o.mm[og]);
      return;
    case sql::AggFn::kNone:
      return;
  }
}

void ItemColumn::merge_extreme(std::size_t g, bool o_seen, double v) {
  const bool better = fn == sql::AggFn::kMin ? v < mm[g] : v > mm[g];
  if (o_seen && (!seen[g] || better)) mm[g] = v;
  seen[g] = seen[g] || o_seen;
}

double ItemColumn::finalize(std::size_t g) const {
  switch (fn) {
    case sql::AggFn::kCount:
      if (count[g] > kCountLimit)
        throw QueryError("COUNT overflow: " + std::to_string(count[g]) +
                         " rows exceeds 2^53 (not exactly representable)");
      return static_cast<double>(count[g]);
    case sql::AggFn::kSum:
      return sum[g].finalize();
    case sql::AggFn::kAvg:
      if (count[g] == 0) return std::numeric_limits<double>::quiet_NaN();
      if (count[g] > kCountLimit)
        throw QueryError("AVG overflow: " + std::to_string(count[g]) +
                         " rows exceeds 2^53 (not exactly representable)");
      return sum[g].finalize() / static_cast<double>(count[g]);
    case sql::AggFn::kMin:
    case sql::AggFn::kMax:
      return seen[g] ? mm[g] : std::numeric_limits<double>::quiet_NaN();
    case sql::AggFn::kNone:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// --- AggTable --------------------------------------------------------------

AggTable::AggTable(AggShape shape, StrategyChoice choice)
    : shape_(std::move(shape)),
      choice_(choice),
      active_(choice.strategy),
      parts_(active_ == Strategy::kRadix ? kRadixParts : 1) {
  for (sql::AggFn fn : shape_.fns) items_.emplace_back(fn);
  if (active_ == Strategy::kDense) {
    const int64_t width = choice_.dense_hi - choice_.dense_lo + 1;
    if (width < 1 || width * static_cast<int64_t>(
                                 std::max<std::size_t>(shape_.nitems(), 1)) >
                         kDenseCellBudget)
      throw InternalError("dense aggregation domain exceeds the cell budget");
    base_ = static_cast<uint32_t>(width);
    present_.assign(base_, 0);
    for (auto& c : items_) c.resize(base_);
  }
}

AggTable::KeyIndex& AggTable::index_of(uint64_t hash) {
  return parts_[active_ == Strategy::kRadix ? hash >> 60 : 0];
}

void AggTable::insert_rank(KeyIndex& ix, uint64_t hash, uint32_t rank) {
  const std::size_t mask = ix.slots.size() - 1;
  std::size_t i = hash & mask;
  while (ix.slots[i] != 0) i = (i + 1) & mask;
  ix.slots[i] = rank + 1;
  ++ix.used;
}

void AggTable::make_room(KeyIndex& ix) {
  if ((ix.used + 1) * 10 < ix.slots.size() * 7) return;
  // Double the capacity and re-place this index's groups.
  std::vector<uint32_t> old(ix.slots.size() * 2, 0);
  old.swap(ix.slots);
  ix.used = 0;
  for (uint32_t slot : old)
    if (slot != 0)
      insert_rank(ix, hash_keys(hashed_key(slot - 1), shape_.nkeys), slot - 1);
}

uint32_t AggTable::find_or_insert_hashed(const double* keys) {
  const std::size_t nkeys = shape_.nkeys;
  const uint64_t h = hash_keys(keys, nkeys);
  KeyIndex& ix = index_of(h);
  make_room(ix);
  const std::size_t mask = ix.slots.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const uint32_t slot = ix.slots[i];
    if (slot == 0) {
      ix.slots[i] = nhashed_ + 1;
      ++ix.used;
      keys_.insert(keys_.end(), keys, keys + nkeys);
      return base_ + nhashed_++;
    }
    if (same_keys(hashed_key(slot - 1), keys, nkeys)) return base_ + slot - 1;
  }
}

void AggTable::upgrade_to_radix() {
  parts_.assign(kRadixParts, KeyIndex{});
  active_ = Strategy::kRadix;
  for (uint32_t r = 0; r < nhashed_; ++r) {
    const uint64_t h = hash_keys(hashed_key(r), shape_.nkeys);
    KeyIndex& ix = index_of(h);
    make_room(ix);
    insert_rank(ix, h, r);
  }
}

void AggTable::map_groups(const double* keys, std::size_t n, uint32_t* ids) {
  if (n == 0) return;
  const std::size_t nkeys = shape_.nkeys;
  // The upgrade rule: a kHash table upgrades once a lookup finds it at
  // kRadixUpgradeGroups groups or more.  Groups only grow, so that holds
  // for some lookup of the batch exactly when it holds for the last one.
  bool upgrade = false;
  if (active_ == Strategy::kDense) {
    const double lo = static_cast<double>(choice_.dense_lo);
    const double hi = static_cast<double>(choice_.dense_hi);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = keys[i];
      // Runtime guard: the hull estimate is advisory — anything outside
      // the dense domain (or not exactly integral) spills to the hash
      // index.
      if (v >= lo && v <= hi) {
        const auto iv = static_cast<int64_t>(v);  // in range: lo, hi are
        if (static_cast<double>(iv) == v) {       // int64 values
          const auto idx = static_cast<uint32_t>(iv - choice_.dense_lo);
          if (!present_[idx]) {
            present_[idx] = 1;
            touched_.push_back(idx);
          }
          ids[i] = idx;
          continue;
        }
      }
      ids[i] = find_or_insert_hashed(keys + i);
    }
  } else if (nkeys == 0) {
    // A global aggregate: every row folds into its single group.
    upgrade = active_ == Strategy::kHash && nhashed_ >= kRadixUpgradeGroups;
    std::fill(ids, ids + n, find_or_insert_hashed(keys));
  } else {
    // A row whose keys equal the previous row's reuses its id.  A kernel
    // batch holds rows of one AFC, which mostly share their implicit
    // attributes: on perfbench's aggregate workload 94.5% of GROUP BY REL,
    // TIME rows repeat the previous row's keys (GROUP BY SOIL: none).
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 1 == n)
        upgrade = active_ == Strategy::kHash && nhashed_ >= kRadixUpgradeGroups;
      const double* k = keys + i * nkeys;
      ids[i] = i > 0 && same_keys(k - nkeys, k, nkeys)
                   ? ids[i - 1]
                   : find_or_insert_hashed(k);
    }
  }
  for (auto& c : items_) c.resize(base_ + nhashed_);
  if (upgrade) upgrade_to_radix();
}

void AggTable::clear() {
  for (uint32_t idx : touched_) {
    present_[idx] = 0;
    for (auto& c : items_) c.clear(idx);
  }
  touched_.clear();
  // Empty each hashed group's slot.  Its probe path from its home slot
  // may cross slots already emptied, so search for the rank, not a hole.
  for (uint32_t r = 0; r < nhashed_; ++r) {
    const uint64_t h = hash_keys(hashed_key(r), shape_.nkeys);
    KeyIndex& ix = index_of(h);
    const std::size_t mask = ix.slots.size() - 1;
    std::size_t i = h & mask;
    while (ix.slots[i] != r + 1) i = (i + 1) & mask;
    ix.slots[i] = 0;
    --ix.used;
  }
  nhashed_ = 0;
  keys_.clear();
  for (auto& c : items_) c.resize(base_);
}

uint64_t AggTable::ngroups() const { return touched_.size() + nhashed_; }

void AggTable::list_groups(std::vector<double>& keys,
                           std::vector<uint32_t>& ids) const {
  const auto first = static_cast<std::ptrdiff_t>(ids.size());
  ids.insert(ids.end(), touched_.begin(), touched_.end());
  std::sort(ids.begin() + first, ids.end());
  for (auto it = ids.begin() + first; it != ids.end(); ++it)
    keys.push_back(static_cast<double>(choice_.dense_lo + int64_t{*it}));
  keys.insert(keys.end(), keys_.begin(), keys_.end());
  for (uint32_t r = 0; r < nhashed_; ++r) ids.push_back(base_ + r);
}

void AggTable::merge(const AggTable& o) {
  if (!(shape_ == o.shape_))
    throw InternalError("merging aggregate tables of different shapes");
  merge_keys_.clear();
  merge_from_.clear();
  o.list_groups(merge_keys_, merge_from_);
  const std::size_t n = merge_from_.size();
  merge_to_.resize(n);
  map_groups(merge_keys_.data(), n, merge_to_.data());
  for (std::size_t j = 0; j < items_.size(); ++j)
    for (std::size_t i = 0; i < n; ++i)
      items_[j].merge(merge_to_[i], o.items_[j], merge_from_[i]);
}

void AggTable::encode(std::string& out) const {
  put_u8(out, kKindTable);
  put_le<uint16_t>(out, shape_.nkeys);
  put_le<uint16_t>(out, static_cast<uint16_t>(shape_.nitems()));
  for (sql::AggFn fn : shape_.fns) put_u8(out, static_cast<uint8_t>(fn));
  std::vector<double> keys;
  std::vector<uint32_t> ids;
  list_groups(keys, ids);
  put_le<uint64_t>(out, ids.size());
  for (std::size_t g = 0; g < ids.size(); ++g) {
    for (uint16_t k = 0; k < shape_.nkeys; ++k)
      put_le<double>(out, keys[g * shape_.nkeys + k]);
    for (const auto& c : items_) encode_item(out, c, ids[g]);
  }
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
    uint32_t id;
    map_groups(keys.data(), 1, &id);
    for (auto& c : items_) merge_decoded_item(r, c, id);
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
    for (const auto& o : spec_.out) {
      ItemColumn empty(spec_.shape.fns[o.index]);
      empty.resize(1);
      row.push_back(empty.finalize(0));
    }
    return row;
  }
  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(tab_->ngroups()) * spec_.ncols);
  std::vector<double> keys;
  std::vector<uint32_t> ids;
  tab_->list_groups(keys, ids);
  const std::size_t nkeys = spec_.shape.nkeys;
  for (std::size_t g = 0; g < ids.size(); ++g)
    for (const auto& o : spec_.out)
      flat.push_back(o.is_agg ? tab_->item(o.index).finalize(ids[g])
                              : keys[g * nkeys + o.index]);
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
    : q_(&q), grouped_(q.has_aggregates()) {
  if (grouped_) {
    AggShape shape;
    shape.nkeys = static_cast<uint16_t>(q.group_key_cols().size());
    for (const auto& it : q.agg_items()) shape.fns.push_back(it.fn);
    main_tab_ = std::make_unique<AggTable>(shape, choice);
    delta_tab_ = std::make_unique<AggTable>(shape, choice);
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
    delta_tab_->clear();
  } else {
    main_topk_->merge(*delta_topk_);
    delta_topk_->clear();
  }
}

bool PushdownSink::rollback_afc() {
  // Nothing has left the worker: clearing the delta fully undoes the AFC.
  if (grouped_) delta_tab_->clear();
  else delta_topk_->clear();
  return true;
}

void PushdownSink::finish() { begin_afc(); }

void PushdownSink::on_row(const double* vals, uint64_t scan_index) {
  on_rows(vals, q_->select_slots().size(), 1, &scan_index);
}

void PushdownSink::on_rows(const double* rows, std::size_t ncols,
                           std::size_t nrows, const uint64_t*) {
  rows_folded_ += nrows;
  if (!grouped_) {
    for (std::size_t i = 0; i < nrows; ++i) delta_topk_->add(rows + i * ncols);
    return;
  }
  // Pass 1: every row to a group id.
  const auto& key_cols = q_->group_key_cols();
  const std::size_t nkeys = key_cols.size();
  keybuf_.resize(nrows * nkeys);
  for (std::size_t i = 0; i < nrows; ++i)
    for (std::size_t k = 0; k < nkeys; ++k)
      keybuf_[i * nkeys + k] = canon(rows[i * ncols + key_cols[k]]);
  ids_.resize(nrows);
  const uint32_t* ids = ids_.data();
  delta_tab_->map_groups(keybuf_.data(), nrows, ids_.data());

  // Pass 2: one loop per item over the group ids.
  const auto& items = q_->agg_items();
  for (std::size_t j = 0; j < items.size(); ++j) {
    ItemColumn& c = delta_tab_->item(j);
    const expr::CompiledScalar& in = items[j].input;
    if (c.fn == sql::AggFn::kCount) {
      uint64_t* count = c.count.data();
      for (std::size_t i = 0; i < nrows; ++i) ++count[ids[i]];
    } else if (in.kind == expr::CompiledScalar::Kind::kSlot) {
      const double* col = rows + in.slot;
      fold_values(c, ids, nrows,
                  [col, ncols](std::size_t i) { return col[i * ncols]; });
    } else {
      fold_values(c, ids, nrows, [&in, rows, ncols](std::size_t i) {
        return in.eval(rows + i * ncols);
      });
    }
  }
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
