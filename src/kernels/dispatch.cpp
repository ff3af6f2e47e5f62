#include "kernels/dispatch.hpp"

namespace xlds::kernels {

const char* isa_name() noexcept {
#if defined(__AVX2__)
  return "portable+avx2";
#elif defined(__SSE4_2__) || defined(__POPCNT__)
  return "portable+popcnt";
#else
  return "portable";
#endif
}

}  // namespace xlds::kernels
