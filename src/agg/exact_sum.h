// Exact (error-free) accumulation of IEEE-754 doubles.
//
// SUM and AVG results must be byte-identical no matter how the scan is
// split across workers, nodes, or replica failovers (docs/AGGREGATION.md).
// Plain double accumulation cannot give that — float addition is not
// associative — so partial aggregates carry a fixed-point superaccumulator
// wide enough to hold any sum of doubles exactly:
//
//   value = sum_i limb[i] * 2^(32*i - 1074)
//
// 67 signed 64-bit limbs cover the full double range (2^-1074 .. 2^1024)
// with headroom for 2^53-and-more addends.  Addition of accumulators is
// limb-wise integer addition, hence associative and commutative: merging
// partial states in any grouping yields the same bits, and the final
// rounding to double (round-to-nearest-even) is performed exactly once.
//
// -0.0 contributes nothing, so a sum that is exactly zero finalizes to
// +0.0 even when every addend was -0.0.  Non-finite addends are tracked in
// flags: any NaN, or both +inf and -inf, finalizes to NaN; else +inf or
// -inf wins.  This matches left-to-right double accumulation on the same
// multiset of inputs except for the rounding of finite sums, which the
// superaccumulator performs exactly instead of per-step.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace adv::agg {

struct ExactSum {
  static constexpr int kLimbs = 67;

  int64_t limb[kLimbs] = {};
  // Adds since the last carry normalization.  Each add perturbs at most
  // three limbs by < 2^32, so 2^30 adds stay well inside int64.  A merge
  // counts as the other operand's pending adds plus one.
  uint32_t pending = 0;
  bool saw_nan = false;
  bool saw_pinf = false;
  bool saw_ninf = false;

  // Folds one value into the accumulator.  Exact for all finite inputs.
  // Inline: the aggregate fold calls it once per row and item.
  void add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    const int exp = static_cast<int>((bits >> 52) & 0x7ff);
    if (exp == 0x7ff) return add_nonfinite(v);
    // v = mant * 2^(max(exp, 1) - 1075), so mant's bit 0 is accumulator
    // bit pos = max(exp, 1) - 1 (subnormals share the minimum exponent).
    // +-0 adds zero limbs.
    const uint64_t mant = (bits & ((uint64_t{1} << 52) - 1)) |
                          (static_cast<uint64_t>(exp != 0) << 52);
    const int pos = (exp ? exp : 1) - 1;
    const int li = pos >> 5;
    const int sh = pos & 31;
    // mant << sh spans at most 84 bits; split it into 64 low + 20 high.
    const uint64_t lo64 = mant << sh;
    const uint64_t hi64 = (mant >> 1) >> (63 - sh);
    // Branch-free negation: s is 0 for positive v and -1 for negative.
    const int64_t s = -static_cast<int64_t>(bits >> 63);
    limb[li] += (static_cast<int64_t>(lo64 & 0xffffffffu) ^ s) - s;
    limb[li + 1] += (static_cast<int64_t>(lo64 >> 32) ^ s) - s;
    limb[li + 2] += (static_cast<int64_t>(hi64) ^ s) - s;
    if (++pending >= (uint32_t{1} << 30)) normalize();
  }

  // Limb-wise addition of another accumulator (exact, associative).  Both
  // must keep the `pending` bound: add, merge and normalize do, and a
  // decoded accumulator must arrive normalized.
  void merge(const ExactSum& o);

  // Propagates carries so limbs 0..kLimbs-2 land in [0, 2^32).  The top
  // limb stays signed and carries the overall sign.
  void normalize();

  // Rounds the exact value to the nearest double (ties to even).
  double finalize() const;

 private:
  void add_nonfinite(double v);
};

}  // namespace adv::agg
