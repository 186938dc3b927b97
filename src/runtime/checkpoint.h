// Versioned binary model checkpoints.
//
// A checkpoint freezes everything needed to re-instantiate a trained ONN
// model as a deployable artifact, with no reference to the Rng streams or
// search state that produced it:
//   * the optional foundry PDK the design was costed against,
//   * every distinct PtcTopology (legalized permutations, coupler masks)
//     referenced by the model's photonic layers, stored once and shared,
//   * the module graph (layer types + constructor configs) so load rebuilds
//     the architecture without user code. The module set is ONNLinear /
//     ONNConv2d (dense or fixed-topology binding), BatchNorm2d, ReLU,
//     MaxPool2d, AdaptiveAvgPool2d and Flatten. Record tags 3 and 4 held the
//     electronic Linear / Conv2d and are retired: a file carrying one fails
//     as an unknown module tag.
//   * all trainable parameters: per-block [T,K] phase stacks, [T,K] sigma
//     stacks, dense weights, biases, and BatchNorm affine + running stats.
//
// Layout (all integers little-endian, floats as IEEE-754 bit patterns; see
// common/binio.h):
//
//   [0..7]   magic "ADEPTCKP"
//   [8..11]  format version (u32, currently 1)
//   [12..19] payload byte count (u64)
//   payload  sections: pdk? | topologies | modules
//   trailer  CRC-32 of the payload (u32, polynomial 0xEDB88320)
//
// Errors are actionable: bad magic, version skew, truncation (with the byte
// offset and field name), CRC mismatch (stored vs computed), and
// architecture mismatches all throw std::runtime_error explaining what was
// being read. A NaN or infinity in any parameter or BatchNorm statistic is
// refused on save (before a byte is written) and on load, naming the module
// and the field.
//
// Round-trip guarantee: save -> load yields bit-identical parameter buffers,
// hence bit-identical eval predictions (asserted in tests/test_runtime.cpp).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "nn/models.h"
#include "photonics/pdk.h"

namespace adept::runtime {

inline constexpr std::uint32_t kCheckpointVersion = 1;

// A reconstructed model plus the PDK it was saved with (if any).
struct LoadedCheckpoint {
  nn::OnnModel model;
  std::optional<photonics::Pdk> pdk;
};

// Serialize `model` to `path`. Supermesh-bound layers cannot be checkpointed
// (they reference live search state); freeze the searched design to a
// PtcTopology first (core::SearchResult::topology) and rebuild the model
// with PtcBinding::fixed. Throws std::runtime_error on I/O failure (message
// includes the path and errno/strerror), unsupported modules, or a
// non-finite parameter (nothing is written then).
//
// Crash-safe: bytes go to `path + ".tmp"`, are fsync'd, and atomically
// rename(2)'d over `path` — a crash at any point leaves either the previous
// good checkpoint or a stray .tmp, never a torn `path` (proven with
// failpoint-injected crashes in tests/test_server_robustness.cpp).
void save_checkpoint(nn::OnnModel& model, const std::string& path,
                     const photonics::Pdk* pdk = nullptr);

// Rebuild a model (architecture + parameters) from `path`. Decode failures
// that look like a transiently-torn read (truncation, CRC mismatch — e.g. a
// non-atomic remote writer racing this read) are retried up to 2 more times
// with a short backoff before the error propagates; durable corruption
// (bad magic, version skew, implausible counts, non-finite values) fails
// immediately.
LoadedCheckpoint load_checkpoint(const std::string& path);

// In-memory variants backing the file API (used by tests to exercise
// corrupt-checkpoint handling without touching disk).
std::string encode_checkpoint(nn::OnnModel& model,
                              const photonics::Pdk* pdk = nullptr);
LoadedCheckpoint decode_checkpoint(const std::string& bytes);

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`; exposed for tests.
std::uint32_t crc32(std::string_view data);

}  // namespace adept::runtime
