// Kernel-loop selection for the extraction hot path.
//
// The extractor runs one of two inner loops per AFC (see docs/KERNELS.md):
//   vector  columnar batch decode + branch-free mask predicate passes; the
//           production tier and the default everywhere
//   interp  row-at-a-time interpreted decode + predicate eval; the
//           reference loop that the oracle and the dq harness pin
#pragma once

#include <cstdint>
#include <string>

namespace adv {

// The numeric values are stable: they show up in logs and in parameterized
// test names.
enum class KernelMode : uint8_t { kInterp = 1, kVector = 2 };

// Spec name ("vector" | "interp").
const char* to_string(KernelMode m);

// Parses a spec name; returns false (out untouched) on an unknown name.
bool kernel_mode_from_name(const std::string& name, KernelMode& out);

}  // namespace adv
