#include "nn/kernels/kernels.h"

namespace bigcity::nn::kernels {

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) && defined(__GNUC__)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

}  // namespace bigcity::nn::kernels
