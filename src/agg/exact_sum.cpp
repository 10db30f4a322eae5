#include "agg/exact_sum.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace adv::agg {

namespace {

// Smallest representable magnitude is 2^-1074 (bit 0 of the accumulator);
// largest finite double tops out near bit 2^1024 - 2^-1074, i.e. bit 2098.
constexpr int kBiasBits = 1074;

}  // namespace

void ExactSum::add_nonfinite(double v) {
  if (std::isnan(v)) saw_nan = true;
  else if (v > 0) saw_pinf = true;
  else saw_ninf = true;
}

void ExactSum::normalize() {
  for (int i = 0; i < kLimbs - 1; ++i) {
    // Arithmetic shift implements floor division, so this propagates
    // borrows from negative limbs as well as carries from positive ones.
    const int64_t carry = limb[i] >> 32;
    limb[i] -= carry << 32;
    limb[i + 1] += carry;
  }
  pending = 0;
}

void ExactSum::merge(const ExactSum& o) {
  // Each operand's limbs below the top are within (pending + 1) * 2^32 of
  // zero, so the sum's are within (pending + o.pending + 2) * 2^32.
  for (int i = 0; i < kLimbs; ++i) limb[i] += o.limb[i];
  pending += o.pending + 1;
  if (pending >= (uint32_t{1} << 30)) normalize();
  saw_nan = saw_nan || o.saw_nan;
  saw_pinf = saw_pinf || o.saw_pinf;
  saw_ninf = saw_ninf || o.saw_ninf;
}

double ExactSum::finalize() const {
  if (saw_nan || (saw_pinf && saw_ninf))
    return std::numeric_limits<double>::quiet_NaN();
  if (saw_pinf) return std::numeric_limits<double>::infinity();
  if (saw_ninf) return -std::numeric_limits<double>::infinity();

  ExactSum t = *this;
  t.normalize();
  int top = kLimbs - 1;
  while (top >= 0 && t.limb[top] == 0) --top;
  if (top < 0) return 0.0;
  const bool neg = t.limb[top] < 0;
  if (neg) {
    for (int i = 0; i < kLimbs; ++i) t.limb[i] = -t.limb[i];
    t.normalize();
    top = kLimbs - 1;
    while (top >= 0 && t.limb[top] == 0) --top;
  }

  // Magnitude = sum_i limb[i] * 2^(32*i), limbs 0..top-1 in [0, 2^32) and
  // the top limb positive (possibly wider than 32 bits).  B is the bit
  // index of the most significant set bit.
  int hb = 63;
  while (hb > 0 && !((static_cast<uint64_t>(t.limb[top]) >> hb) & 1)) --hb;
  const long B = static_cast<long>(top) * 32 + hb;

  if (B <= 52) {
    // At most 53 significant bits: the value is exactly representable.
    uint64_t mag = static_cast<uint64_t>(t.limb[0]);
    if (top >= 1) mag |= static_cast<uint64_t>(t.limb[1]) << 32;
    const double r = std::ldexp(static_cast<double>(mag), -kBiasBits);
    return neg ? -r : r;
  }

  // Reads bits [lo_bit, lo_bit + nbits) of the magnitude, nbits <= 53.
  // Three limbs (bit positions 0/32/64 relative to the base limb) always
  // cover a 53-bit window at any sub-limb shift.
  const auto get_bits = [&](long lo_bit, int nbits) -> uint64_t {
    const int base = static_cast<int>(lo_bit >> 5);
    const int sh = static_cast<int>(lo_bit & 31);
    const auto limb_at = [&](int i) -> uint64_t {
      return (i >= 0 && i <= top) ? static_cast<uint64_t>(t.limb[i]) : 0;
    };
    uint64_t w = (limb_at(base) >> sh) | (limb_at(base + 1) << (32 - sh));
    if (sh) w |= limb_at(base + 2) << (64 - sh);
    return nbits >= 64 ? w : w & ((uint64_t{1} << nbits) - 1);
  };

  long exp_b = B;
  uint64_t m = get_bits(B - 52, 53);
  const bool guard = get_bits(B - 53, 1) != 0;
  bool sticky = false;
  const long below = B - 53;  // bits [0, below) feed the sticky bit
  const int full = static_cast<int>(below >> 5);
  for (int i = 0; i < full && i <= top; ++i) sticky = sticky || t.limb[i] != 0;
  const int rem = static_cast<int>(below & 31);
  if (!sticky && rem > 0 && full <= top)
    sticky = (static_cast<uint64_t>(t.limb[full]) &
              ((uint64_t{1} << rem) - 1)) != 0;
  if (guard && (sticky || (m & 1))) {
    ++m;
    if (m >> 53) {
      m >>= 1;
      ++exp_b;
    }
  }
  const double r =
      std::ldexp(static_cast<double>(m), static_cast<int>(exp_b - 52 - kBiasBits));
  return neg ? -r : r;
}

}  // namespace adv::agg
