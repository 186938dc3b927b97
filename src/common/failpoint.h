// Failpoint injection framework.
//
// A failpoint is a named site in production code where a test (or an
// operator, via the environment) can inject a failure without recompiling:
//
//   // In the code under test, at the seam worth breaking:
//   failpoint::maybe_fail("checkpoint.save.write");
//
//   // In a test:
//   failpoint::Scoped fp("checkpoint.save.write", "throw");
//   EXPECT_THROW(save_checkpoint(model, path), std::runtime_error);
//
// The disarmed fast path is a single relaxed atomic load of the armed-site
// count — sites stay in release builds and cost nothing until armed.
//
// Action specs (parsed by `arm`, or from the environment):
//   "throw"        throw adept::failpoint::Injected (a std::runtime_error)
//   "error"        report "simulate the site's own error path" to the
//                  caller: maybe_fail returns true and the site maps that
//                  onto whatever its real failure handling is (short write,
//                  failed syscall, ...) so the production error branch runs
//   "stall(N)"     sleep N microseconds, then continue (slow disk, slow
//                  model, scheduling hiccup)
//   "truncate(K)"  for write sites that consult `write_truncation`: stop
//                  the write after K bytes and simulate a crash
// Any spec may be prefixed with a firing budget: "2*error" fires twice and
// then disarms itself; unprefixed specs fire on every hit.
//
// Environment activation: ADEPT_FAILPOINTS="site=spec;site2=spec" is parsed
// on first evaluation (see common/env.h). Programmatic arming always wins
// over the environment for the same site.
//
// Sites wired so far (grep for the string to find the seam):
//   checkpoint.save.open / .write / .fsync / .rename   crash-safe save path
//   checkpoint.load.read                               torn/short reads
//   runtime.freeze                                     CompiledModel::freeze
//   runtime.plan.step                                  before each step of
//                                                      CompiledModel::run
//   server.worker.batch                                before each forward
//   comm.allreduce                                     entry of every rank's
//                                                      collective allreduce
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace adept::failpoint {

// The exception "throw" specs raise. Derives from std::runtime_error so
// existing catch sites treat an injected failure like a real one.
struct Injected : std::runtime_error {
  explicit Injected(const std::string& site)
      : std::runtime_error("failpoint \"" + site + "\": injected failure") {}
};

// True when at least one site is armed (relaxed load; the only check on the
// disarmed fast path).
bool any_armed();

// Arm `site` with an action spec (see file comment). Throws
// std::invalid_argument on a malformed spec.
void arm(const std::string& site, const std::string& spec);

// Disarm one site / all sites. Disarming an unarmed site is a no-op.
void disarm(const std::string& site);
void disarm_all();

// Cumulative number of times `site` fired (any action), for tests that
// assert a seam was actually exercised.
std::uint64_t hit_count(const std::string& site);

// Evaluate `site`: no-op when disarmed. Fires the armed action — throws for
// "throw", sleeps for "stall", and returns true for "error" (the caller
// simulates its own failure path). "truncate" specs do not fire here; they
// only answer write_truncation(). Returns false when nothing fired.
bool maybe_fail(const char* site);

// For write sites: the byte count K of an armed "truncate(K)" spec, or
// nullopt. Consumes one firing from the budget when armed.
std::optional<std::int64_t> write_truncation(const char* site);

// Test hook: forget that ADEPT_FAILPOINTS was already parsed, so a test can
// setenv() and re-trigger environment activation (usually after
// disarm_all()). Production code never needs this.
void reset_env_for_testing();

// RAII arm/disarm for tests.
class Scoped {
 public:
  Scoped(std::string site, const std::string& spec) : site_(std::move(site)) {
    arm(site_, spec);
  }
  ~Scoped() { disarm(site_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::string site_;
};

}  // namespace adept::failpoint
