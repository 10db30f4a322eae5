#include "common/kernel_mode.h"

namespace adv {

const char* to_string(KernelMode m) {
  return m == KernelMode::kInterp ? "interp" : "vector";
}

bool kernel_mode_from_name(const std::string& name, KernelMode& out) {
  if (name == "vector") out = KernelMode::kVector;
  else if (name == "interp") out = KernelMode::kInterp;
  else return false;
  return true;
}

}  // namespace adv
