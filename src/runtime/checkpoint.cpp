#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/version.h"
#include "nn/layers.h"
#include "nn/onn_layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace adept::runtime {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'E', 'P', 'T', 'C', 'K', 'P'};

// Module record tags (format version 1). Append-only: new layer kinds get
// new tags, existing tags never change meaning. Tags 3 and 4 (the retired
// electronic Linear / Conv2d) are never reused, so a file carrying one
// fails as an unknown module tag.
enum class Tag : std::uint8_t {
  onn_linear = 1,
  onn_conv2d = 2,
  batchnorm2d = 5,
  relu = 6,
  maxpool2d = 7,
  avgpool2d = 8,
  flatten = 9,
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("checkpoint: " + msg);
}

// A NaN or infinity in a parameter would reach every answer the model
// gives, so neither save nor load lets one through (freeze refuses them
// too).
void require_finite(const std::vector<float>& v, const std::string& what) {
  if (!std::all_of(v.begin(), v.end(), [](float x) { return std::isfinite(x); })) {
    fail(what + " holds a non-finite value");
  }
}

void put_f32_array(std::string& out, const std::vector<float>& v,
                   const std::string& what) {
  require_finite(v, what);
  binio::put_u64(out, v.size());
  for (float x : v) binio::put_f32(out, x);
}

// Constructor dims read from the file get a plausibility bound BEFORE any
// tensor allocation: a corrupted i64 must fail with field context, not as
// an uncontextualized bad_alloc (or a sign-converted giant resize).
constexpr std::int64_t kMaxFeatureDim = 100'000'000;
constexpr std::int64_t kMaxSpatialDim = 65536;

std::int64_t read_dim(binio::Reader& r, const std::string& what, std::int64_t lo,
                      std::int64_t hi) {
  const std::int64_t v = r.i64(what.c_str());
  if (v < lo || v > hi) {
    fail(what + " = " + std::to_string(v) + " is outside the plausible range [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "] — corrupt checkpoint?");
  }
  return v;
}

// Dim PRODUCTS get the same treatment: each factor can pass read_dim while
// the implied weight allocation is still absurd, and module constructors
// must never see a size that ends in bad_alloc.
std::int64_t checked_mul(std::int64_t a, std::int64_t b, const std::string& what) {
  if (a > 0 && b > kMaxFeatureDim / a) {
    fail(what + " implies more than " + std::to_string(kMaxFeatureDim) +
         " weight elements (" + std::to_string(a) + " x " + std::to_string(b) +
         ") — corrupt checkpoint?");
  }
  return a * b;
}

// Reads a float array and checks it against the size the rebuilt
// architecture expects — a mismatch means the file belongs to a different
// architecture/topology, which deserves a clearer message than a crash.
std::vector<float> read_f32_array(binio::Reader& r, const std::string& what,
                                  std::size_t expected) {
  const std::uint64_t n = r.u64((what + " size").c_str());
  if (n != expected) {
    fail(what + " has " + std::to_string(n) + " values, the rebuilt model expects " +
         std::to_string(expected) + " — checkpoint from a different architecture?");
  }
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.f32(what.c_str());
  require_finite(v, what);
  return v;
}

// ---- save ------------------------------------------------------------

// Shared-topology census: each distinct PtcTopology is stored once.
struct TopologyTable {
  std::vector<std::shared_ptr<const photonics::PtcTopology>> topos;
  std::map<const photonics::PtcTopology*, std::uint32_t> index;

  std::uint32_t intern(const std::shared_ptr<const photonics::PtcTopology>& t) {
    auto [it, inserted] = index.try_emplace(
        t.get(), static_cast<std::uint32_t>(topos.size()));
    if (inserted) topos.push_back(t);
    return it->second;
  }
};

void put_ptc_weight_config(std::string& out, nn::PtcWeight& w, TopologyTable& table,
                           const std::string& where) {
  const nn::PtcBinding& binding = w.binding();
  switch (binding.kind) {
    case nn::PtcBinding::Kind::dense:
      binio::put_u8(out, 0);
      break;
    case nn::PtcBinding::Kind::ptc:
      binio::put_u8(out, 1);
      binio::put_u32(out, static_cast<std::uint32_t>(binding.k));
      binio::put_u32(out, table.intern(binding.topology));
      break;
    case nn::PtcBinding::Kind::supermesh:
      fail(where + " is bound to a live SuperMesh; freeze the searched design "
                   "to a PtcTopology (SearchResult::topology) and rebuild with "
                   "PtcBinding::fixed before checkpointing");
  }
}

// Field names match load_ptc_weight_params, so save and load name a bad
// array alike.
void put_ptc_weight_params(std::string& out, nn::PtcWeight& w,
                           const std::string& where) {
  if (w.binding().kind == nn::PtcBinding::Kind::dense) {
    put_f32_array(out, w.dense_weight().data(), where + " dense weight");
    return;
  }
  binio::put_u32(out, static_cast<std::uint32_t>(w.phi_u().size()));
  for (std::size_t b = 0; b < w.phi_u().size(); ++b) {
    put_f32_array(out, w.phi_u()[b].data(), where + " phi_u[" + std::to_string(b) + "]");
  }
  binio::put_u32(out, static_cast<std::uint32_t>(w.phi_v().size()));
  for (std::size_t b = 0; b < w.phi_v().size(); ++b) {
    put_f32_array(out, w.phi_v()[b].data(), where + " phi_v[" + std::to_string(b) + "]");
  }
  put_f32_array(out, w.sigma_stack().data(), where + " sigma");
}

void serialize_module(std::string& out, nn::Module& m, TopologyTable& table,
                      std::size_t idx) {
  const std::string where = "module " + std::to_string(idx);
  if (auto* l = dynamic_cast<nn::ONNLinear*>(&m)) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::onn_linear));
    binio::put_i64(out, l->in_features());
    binio::put_i64(out, l->out_features());
    binio::put_u8(out, l->has_bias() ? 1 : 0);
    put_ptc_weight_config(out, l->weight(), table, where + " (ONNLinear)");
    put_ptc_weight_params(out, l->weight(), where + " (ONNLinear)");
    if (l->has_bias()) put_f32_array(out, l->bias().data(), where + " bias");
  } else if (auto* c = dynamic_cast<nn::ONNConv2d*>(&m)) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::onn_conv2d));
    binio::put_i64(out, c->in_channels());
    binio::put_i64(out, c->out_channels());
    binio::put_i64(out, c->kernel());
    binio::put_i64(out, c->stride());
    binio::put_i64(out, c->pad());
    binio::put_u8(out, c->has_bias() ? 1 : 0);
    put_ptc_weight_config(out, c->weight(), table, where + " (ONNConv2d)");
    put_ptc_weight_params(out, c->weight(), where + " (ONNConv2d)");
    if (c->has_bias()) put_f32_array(out, c->bias().data(), where + " bias");
  } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::batchnorm2d));
    binio::put_i64(out, bn->channels());
    binio::put_f32(out, bn->momentum());
    binio::put_f32(out, bn->eps());
    put_f32_array(out, bn->gamma().data(), where + " gamma");
    put_f32_array(out, bn->beta().data(), where + " beta");
    put_f32_array(out, bn->running_mean(), where + " running_mean");
    put_f32_array(out, bn->running_var(), where + " running_var");
  } else if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::relu));
  } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&m)) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::maxpool2d));
    binio::put_i64(out, mp->kernel());
    binio::put_i64(out, mp->stride());
  } else if (auto* ap = dynamic_cast<nn::AdaptiveAvgPool2d*>(&m)) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::avgpool2d));
    binio::put_i64(out, ap->out_h());
    binio::put_i64(out, ap->out_w());
  } else if (dynamic_cast<nn::Flatten*>(&m) != nullptr) {
    binio::put_u8(out, static_cast<std::uint8_t>(Tag::flatten));
  } else {
    fail(where + ": unsupported module type (checkpoint format v" +
         std::to_string(kCheckpointVersion) + " knows the nn/ layer set)");
  }
}

// ---- load ------------------------------------------------------------

// Overwrites `dst`'s data buffer with a stored array of the same size.
void load_tensor(binio::Reader& r, ag::Tensor& dst, const std::string& what) {
  dst.data() = read_f32_array(r, what, dst.data().size());
}

void load_ptc_weight_params(binio::Reader& r, nn::PtcWeight& w,
                            const std::string& where) {
  if (w.binding().kind == nn::PtcBinding::Kind::dense) {
    load_tensor(r, w.dense_weight(), where + " dense weight");
    return;
  }
  const std::uint32_t nu = r.u32((where + " phi_u count").c_str());
  if (nu != w.phi_u().size()) {
    fail(where + " has " + std::to_string(nu) + " U phase stacks, topology has " +
         std::to_string(w.phi_u().size()) + " U blocks");
  }
  for (std::size_t b = 0; b < w.phi_u().size(); ++b) {
    load_tensor(r, w.phi_u()[b], where + " phi_u[" + std::to_string(b) + "]");
  }
  const std::uint32_t nv = r.u32((where + " phi_v count").c_str());
  if (nv != w.phi_v().size()) {
    fail(where + " has " + std::to_string(nv) + " V phase stacks, topology has " +
         std::to_string(w.phi_v().size()) + " V blocks");
  }
  for (std::size_t b = 0; b < w.phi_v().size(); ++b) {
    load_tensor(r, w.phi_v()[b], where + " phi_v[" + std::to_string(b) + "]");
  }
  load_tensor(r, w.sigma_stack(), where + " sigma");
}

nn::PtcBinding read_binding(
    binio::Reader& r, const std::string& where,
    const std::vector<std::shared_ptr<const photonics::PtcTopology>>& topos) {
  const std::uint8_t kind = r.u8((where + " binding kind").c_str());
  if (kind == 0) return nn::PtcBinding::dense();
  if (kind != 1) {
    fail(where + ": unknown binding kind " + std::to_string(kind));
  }
  const std::uint32_t k = r.u32((where + " tile size").c_str());
  const std::uint32_t ti = r.u32((where + " topology index").c_str());
  if (ti >= topos.size()) {
    fail(where + ": topology index " + std::to_string(ti) + " out of range (file has " +
         std::to_string(topos.size()) + " topologies)");
  }
  if (static_cast<int>(k) != topos[ti]->k) {
    fail(where + ": tile size " + std::to_string(k) + " disagrees with topology K=" +
         std::to_string(topos[ti]->k));
  }
  return nn::PtcBinding::fixed(topos[ti]);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_checkpoint(nn::OnnModel& model, const photonics::Pdk* pdk) {
  if (!model.net) fail("model has no module graph");
  const std::vector<std::shared_ptr<nn::Module>> modules =
      nn::flatten_modules(model.net);

  // The topology table is interned while serializing modules, so module
  // records land in a scratch buffer first and the table is emitted ahead
  // of them in the final payload.
  TopologyTable table;
  std::string module_bytes;
  binio::put_u32(module_bytes, static_cast<std::uint32_t>(modules.size()));
  for (std::size_t i = 0; i < modules.size(); ++i) {
    serialize_module(module_bytes, *modules[i], table, i);
  }

  std::string payload;
  binio::put_u8(payload, pdk != nullptr ? 1 : 0);
  if (pdk != nullptr) pdk->serialize_binary(payload);
  binio::put_u32(payload, static_cast<std::uint32_t>(table.topos.size()));
  for (const auto& t : table.topos) t->serialize_binary(payload);
  payload += module_bytes;

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  binio::put_u32(out, kCheckpointVersion);
  binio::put_u64(out, payload.size());
  out += payload;
  binio::put_u32(out, crc32(payload));
  return out;
}

LoadedCheckpoint decode_checkpoint(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 8) {
    fail("truncated header: " + std::to_string(bytes.size()) +
         " bytes, need at least " + std::to_string(sizeof(kMagic) + 4 + 8));
  }
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not an ADEPT checkpoint): expected \"ADEPTCKP\", got \"" +
         bytes.substr(0, sizeof(kMagic)) + "\"");
  }
  binio::Reader header(bytes, sizeof(kMagic), "checkpoint");
  const std::uint32_t version = header.u32("format version");
  if (version != kCheckpointVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint64_t payload_size = header.u64("payload size");
  const std::size_t payload_begin = header.offset();
  // Overflow-safe: payload_size comes straight from the (untrusted) file,
  // so never add it to anything — compare against the remaining span.
  const std::size_t after_header = bytes.size() - payload_begin;
  if (after_header < 4 || payload_size > after_header - 4) {
    fail("truncated payload: header promises " + std::to_string(payload_size) +
         " bytes + CRC, file has " + std::to_string(after_header) +
         " after the header");
  }
  if (payload_size < after_header - 4) {
    fail("trailing garbage: " + std::to_string(after_header - 4 - payload_size) +
         " bytes after the CRC trailer (file corrupt or concatenated?)");
  }
  // View, not a copy: checkpoints hold every weight of the model, so the
  // decode path must not double peak memory just to CRC/parse them.
  const std::string_view payload(bytes.data() + payload_begin,
                                 static_cast<std::size_t>(payload_size));
  binio::Reader trailer(bytes, payload_begin + static_cast<std::size_t>(payload_size),
                        "checkpoint");
  const std::uint32_t stored_crc = trailer.u32("payload CRC");
  const std::uint32_t computed_crc = crc32(payload);
  if (stored_crc != computed_crc) {
    fail("CRC mismatch (stored " + hex32(stored_crc) + ", computed " +
         hex32(computed_crc) + "): file is corrupt");
  }

  binio::Reader r(payload, 0, "checkpoint");
  LoadedCheckpoint result;
  if (r.u8("pdk flag") != 0) {
    result.pdk = photonics::Pdk::deserialize_binary(r);
  }
  const std::uint32_t n_topos = r.u32("topology count");
  // Each topology occupies >= 20 payload bytes; bound before reserving so a
  // corrupt count fails through the contextualized path, not bad_alloc.
  if (n_topos > r.remaining() / 20) {
    fail("implausible topology count " + std::to_string(n_topos) + " (only " +
         std::to_string(r.remaining()) + " payload bytes remain)");
  }
  std::vector<std::shared_ptr<const photonics::PtcTopology>> topos;
  topos.reserve(n_topos);
  for (std::uint32_t i = 0; i < n_topos; ++i) {
    topos.push_back(std::make_shared<photonics::PtcTopology>(
        photonics::PtcTopology::deserialize_binary(r)));
  }

  // Module constructors consume an Rng for their (immediately overwritten)
  // random initialization; the seed is irrelevant to the loaded result.
  adept::Rng rng(0);
  result.model.net = std::make_shared<nn::Sequential>();
  const std::uint32_t n_modules = r.u32("module count");
  for (std::uint32_t i = 0; i < n_modules; ++i) {
    const std::string where = "module " + std::to_string(i);
    const auto tag = static_cast<Tag>(r.u8((where + " tag").c_str()));
    switch (tag) {
      case Tag::onn_linear: {
        const std::int64_t in = read_dim(r, where + " in_features", 1, kMaxFeatureDim);
        const std::int64_t out = read_dim(r, where + " out_features", 1, kMaxFeatureDim);
        (void)checked_mul(in, out, where + " ONNLinear weight");
        const bool bias = r.u8((where + " bias flag").c_str()) != 0;
        nn::PtcBinding binding = read_binding(r, where + " (ONNLinear)", topos);
        auto l = std::make_shared<nn::ONNLinear>(in, out, binding, rng, bias);
        load_ptc_weight_params(r, l->weight(), where + " (ONNLinear)");
        if (bias) load_tensor(r, l->bias(), where + " bias");
        result.model.net->add(l);
        result.model.onn_layers.push_back(l.get());
        break;
      }
      case Tag::onn_conv2d: {
        const std::int64_t in_c = read_dim(r, where + " in_channels", 1, kMaxFeatureDim);
        const std::int64_t out_c = read_dim(r, where + " out_channels", 1, kMaxFeatureDim);
        const std::int64_t k = read_dim(r, where + " kernel", 1, kMaxSpatialDim);
        const std::int64_t stride = read_dim(r, where + " stride", 1, kMaxSpatialDim);
        const std::int64_t pad = read_dim(r, where + " pad", 0, kMaxSpatialDim);
        (void)checked_mul(checked_mul(in_c, k * k, where + " ONNConv2d fan-in"),
                          out_c, where + " ONNConv2d weight");
        const bool bias = r.u8((where + " bias flag").c_str()) != 0;
        nn::PtcBinding binding = read_binding(r, where + " (ONNConv2d)", topos);
        auto c = std::make_shared<nn::ONNConv2d>(in_c, out_c, k, binding, rng,
                                                 stride, pad, bias);
        load_ptc_weight_params(r, c->weight(), where + " (ONNConv2d)");
        if (bias) load_tensor(r, c->bias(), where + " bias");
        result.model.net->add(c);
        result.model.onn_layers.push_back(c.get());
        break;
      }
      case Tag::batchnorm2d: {
        const std::int64_t channels = read_dim(r, where + " channels", 1, kMaxFeatureDim);
        const float momentum = r.f32((where + " momentum").c_str());
        const float eps = r.f32((where + " eps").c_str());
        auto bn = std::make_shared<nn::BatchNorm2d>(channels, momentum, eps);
        load_tensor(r, bn->gamma(), where + " gamma");
        load_tensor(r, bn->beta(), where + " beta");
        bn->running_mean() =
            read_f32_array(r, where + " running_mean", bn->running_mean().size());
        bn->running_var() =
            read_f32_array(r, where + " running_var", bn->running_var().size());
        result.model.net->add(bn);
        break;
      }
      case Tag::relu:
        result.model.net->add(std::make_shared<nn::ReLU>());
        break;
      case Tag::maxpool2d: {
        const std::int64_t k = read_dim(r, where + " kernel", 1, kMaxSpatialDim);
        const std::int64_t stride = read_dim(r, where + " stride", 1, kMaxSpatialDim);
        result.model.net->add(std::make_shared<nn::MaxPool2d>(k, stride));
        break;
      }
      case Tag::avgpool2d: {
        const std::int64_t oh = read_dim(r, where + " out_h", 1, kMaxSpatialDim);
        const std::int64_t ow = read_dim(r, where + " out_w", 1, kMaxSpatialDim);
        result.model.net->add(std::make_shared<nn::AdaptiveAvgPool2d>(oh, ow));
        break;
      }
      case Tag::flatten:
        result.model.net->add(std::make_shared<nn::Flatten>());
        break;
      default:
        fail(where + ": unknown module tag " +
             std::to_string(static_cast<int>(tag)));
    }
  }
  if (r.remaining() != 0) {
    fail("trailing garbage: " + std::to_string(r.remaining()) +
         " unread payload bytes after the last module");
  }
  // Parameter buffers were overwritten directly; invalidate eval caches.
  adept::bump_param_version();
  return result;
}

namespace {

// Every I/O failure message carries the failing path AND the OS error
// (errno + strerror), so "I/O failure" is never the whole story.
[[noreturn]] void fail_errno(const std::string& what, const std::string& path,
                             int err) {
  fail(what + " \"" + path + "\": " + std::strerror(err) + " (errno " +
       std::to_string(err) + ")");
}

// RAII fd so every error path below closes the descriptor.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int release() {
    const int f = fd;
    fd = -1;
    return f;
  }
};

// Crash-safe publish: write to a sibling temp file, fsync it, and rename
// over `path`. A crash at ANY point leaves either the previous good file or
// a stray .tmp — never a torn `path`. Failpoints cover each stage
// (checkpoint.save.{open,write,fsync,rename}); "truncate(K)" on the write
// site stops after K bytes and simulates the crash.
void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  Fd out;
  if (failpoint::maybe_fail("checkpoint.save.open")) errno = EACCES;
  else out.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out.fd < 0) fail_errno("cannot open temp file", tmp, errno);

  std::size_t limit = bytes.size();
  bool crash_after_write = false;
  if (const auto k = failpoint::write_truncation("checkpoint.save.write")) {
    limit = std::min<std::size_t>(limit, static_cast<std::size_t>(*k));
    crash_after_write = true;
  }
  std::size_t written = 0;
  while (written < limit) {
    const ::ssize_t n = ::write(out.fd, bytes.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::unlink(tmp.c_str());
      fail_errno("write failed on temp file", tmp, err);
    }
    written += static_cast<std::size_t>(n);
  }
  if (crash_after_write || failpoint::maybe_fail("checkpoint.save.write")) {
    // Simulated crash mid-save: the partial .tmp stays behind (as it would
    // after a real crash); `path` is untouched.
    fail("simulated crash while writing \"" + tmp + "\" (failpoint): wrote " +
         std::to_string(written) + " of " + std::to_string(bytes.size()) + " bytes");
  }
  if (failpoint::maybe_fail("checkpoint.save.fsync") ? (errno = EIO, true)
                                                     : ::fsync(out.fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail_errno("fsync failed on temp file", tmp, err);
  }
  if (::close(out.release()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail_errno("close failed on temp file", tmp, err);
  }
  if (failpoint::maybe_fail("checkpoint.save.rename") ? (errno = EXDEV, true)
                                                      : ::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail_errno("cannot rename temp file over", path, err);
  }
  // Durability of the rename itself: fsync the containing directory (best
  // effort — some filesystems refuse O_RDONLY dir fsync; the data file
  // above IS synced either way).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  Fd dirfd;
  dirfd.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd.fd >= 0) (void)::fsync(dirfd.fd);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_errno("cannot open", path, errno);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) fail_errno("read error on", path, errno);
  // Torn-read injection: "truncate(K)" keeps only the first K bytes (as if
  // a non-atomic writer raced this read); "error"/"throw"/"stall" behave as
  // usual.
  if (const auto k = failpoint::write_truncation("checkpoint.load.read")) {
    bytes.resize(std::min<std::size_t>(bytes.size(), static_cast<std::size_t>(*k)));
  }
  if (failpoint::maybe_fail("checkpoint.load.read")) {
    fail_errno("read error on", path, EIO);
  }
  return bytes;
}

// A decode failure that could be a transiently-torn read (a non-atomic
// writer mid-flight) rather than durable corruption. save_checkpoint's
// atomic rename makes this impossible for files it wrote, but checkpoints
// also arrive from scp/NFS/CI artifacts.
bool transient_decode_error(const std::string& msg) {
  return msg.find("truncated") != std::string::npos ||
         msg.find("CRC mismatch") != std::string::npos;
}

}  // namespace

void save_checkpoint(nn::OnnModel& model, const std::string& path,
                     const photonics::Pdk* pdk) {
  static const obs::TraceId t_save = obs::intern_name("checkpoint.save");
  obs::TraceSpan span(t_save);
  obs::counter("checkpoint.saves").inc();
  const std::string bytes = encode_checkpoint(model, pdk);
  write_file_atomic(path, bytes);
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  static const obs::TraceId t_load = obs::intern_name("checkpoint.load");
  obs::TraceSpan span(t_load);
  obs::counter("checkpoint.loads").inc();
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      return decode_checkpoint(read_file(path));
    } catch (const std::runtime_error& e) {
      if (attempt >= kAttempts || !transient_decode_error(e.what())) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
  }
}

}  // namespace adept::runtime
