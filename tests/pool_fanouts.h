// Thread-count parity tests compare an N-thread run with a serial one. The
// backend's work gate runs a small launch serially at any budget, so such a
// comparison can silently become serial vs serial: the N-thread side reads
// this counter before and after and asserts that it moved.
#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace adept::test {

// Launches so far that posted work to pool helper threads.
inline std::uint64_t pool_fanouts() {
  return obs::counter("backend.pool.fanouts").value();
}

}  // namespace adept::test
