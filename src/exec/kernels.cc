#include "exec/kernels.h"

#include "exec/simd.h"

namespace swole::kernels {

int32_t SelVecFromCmpLut(const uint8_t* cmp, int64_t len, int32_t* idx) {
  // Under the scalar backend this is the Data Blocks [32] / ROF [5] LUT
  // construction; the AVX2 tier packs the match mask a movemask at a time
  // (exec/simd.h) with bit-identical output.
  return simd::SelVecFromCmp(cmp, len, idx, simd::SelFlavor::kLut);
}

}  // namespace swole::kernels
