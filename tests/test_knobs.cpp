// The knob table's contract, seen from ygm::launch: a malformed YGM_*
// value is an error naming its variable, never a silent fallback, and
// every accepted syntax still reaches the subsystem that reads it.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/knobs.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "telemetry/live.hpp"
#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"

namespace {

namespace sim = ygm::mpisim;

/// Sets one environment variable for a scope, restoring the old value.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~scoped_env() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

struct env_case {
  const char* var;
  const char* value;
};

void PrintTo(const env_case& c, std::ostream* os) {
  *os << c.var << "=" << c.value;
}

std::string case_name(const ::testing::TestParamInfo<env_case>& info) {
  std::string out = std::string(info.param.var) + "_" + info.param.value;
  for (char& ch : out) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return out;
}

// ------------------------------------------------------ malformed values

class Malformed : public ::testing::TestWithParam<env_case> {};

TEST_P(Malformed, LaunchRaisesErrorNamingTheVariable) {
  const env_case& p = GetParam();
  const scoped_env env(p.var, p.value);
  try {
    ygm::launch({.nranks = 1}, [](sim::comm&) {});
    ADD_FAILURE() << p.var << "=" << p.value << " was accepted";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find(p.var), std::string::npos)
        << e.what();
  }
}

// One case per knob that has a malformed form (the text knobs take any
// string), and every value that used to be silently misread: statusz on
// for "off"/"false", chaos off for a misspelt preset, seed 1 for "0x1g",
// "50ms" read as 50, "4M" and "1M" ignored, "abc"/"ten" read as 0.
INSTANTIATE_TEST_SUITE_P(
    Knobs, Malformed,
    ::testing::Values(env_case{"YGM_TRANSPORT", "sockets"},
                      env_case{"YGM_PROGRESS", "engien"},
                      env_case{"YGM_CHAOS", "hevy:5"},
                      env_case{"YGM_CHAOS", "heavy:0x1g"},
                      env_case{"YGM_CHAOS_SEED", "0x1g"},
                      env_case{"YGM_CHAOS_DELAY_PROB", "half"},
                      env_case{"YGM_CHAOS_MAX_DELAY_TICKS", "-1"},
                      env_case{"YGM_CHAOS_IPROBE_MISS_PROB", "1.5"},
                      env_case{"YGM_CHAOS_STALL_PROB", "nan"},
                      env_case{"YGM_CHAOS_MAX_STALL_US", "1e3"},
                      env_case{"YGM_TRACE_SAMPLE", "abc"},
                      env_case{"YGM_CREDIT_BYTES", "1M"},
                      env_case{"YGM_OUTQ_CAP_BYTES", "4M"},
                      env_case{"YGM_SAMPLE_MS", "abc"},
                      env_case{"YGM_SAMPLE_MS", "50ms"},
                      env_case{"YGM_STATUSZ", "off"},
                      env_case{"YGM_STATUSZ", "false"},
                      env_case{"YGM_STALL_TIMEOUT_MS", "ten"},
                      env_case{"YGM_TELEMETRY", "yes"},
                      env_case{"YGM_BENCH_CSV", "2"}),
    case_name);

// --------------------------------------------------------- accepted forms

struct accepted_case {
  env_case env;
  /// What the reading subsystem reports inside a run, as text.
  std::function<std::string()> read;
  std::string want;
};

void PrintTo(const accepted_case& c, std::ostream* os) { PrintTo(c.env, os); }

class Accepted : public ::testing::TestWithParam<accepted_case> {};

/// A run whose rank body shares this process's memory.
ygm::run_options inproc(int nranks) {
  ygm::run_options o;
  o.nranks = nranks;
  o.backend = ygm::transport::backend_kind::inproc;
  return o;
}

TEST_P(Accepted, ReachesTheSubsystemThatReadsIt) {
  const accepted_case& p = GetParam();
  // An ambient chaos preset would hide the individual YGM_CHAOS_* knobs.
  const scoped_env no_preset("YGM_CHAOS", "");
  const scoped_env env(p.env.var, p.env.value);
  std::string got;
  ygm::launch(inproc(1), [&](sim::comm&) { got = p.read(); });
  EXPECT_EQ(got, p.want);
}

std::string chaos_seed_from_env() {
  const auto c = ygm::transport::chaos_config::from_env();
  return c ? std::to_string(c->seed) + "/" + std::to_string(c->delay_prob)
           : "none";
}

namespace tel = ygm::telemetry;
namespace knob = ygm::knob;

std::vector<accepted_case> accepted_cases() {
  return {
      {{"YGM_STATUSZ", "0"},
       [] { return std::to_string(tel::live::resolved_statusz()); }, "0"},
      {{"YGM_SAMPLE_MS", "50"},
       [] { return std::to_string(tel::live::resolved_sample_ms()); }, "50"},
      {{"YGM_SAMPLE_MS", "0x20"},
       [] { return std::to_string(tel::live::resolved_sample_ms()); }, "32"},
      {{"YGM_OUTQ_CAP_BYTES", "4194304"},
       [] { return std::to_string(ygm::transport::outq_cap_bytes()); },
       "4194304"},
      {{"YGM_OUTQ_CAP_BYTES", "0"},
       [] { return std::to_string(ygm::transport::outq_cap_bytes()); }, "0"},
      {{"YGM_TRACE_SAMPLE", "0.25"},
       [] { return std::to_string(knob::get(knob::id::trace_sample).real); },
       "0.250000"},
      {{"YGM_STALL_TIMEOUT_MS", "1500.5"},
       [] {
         return std::to_string(knob::get(knob::id::stall_timeout_ms).real);
       },
       "1500.500000"},
      {{"YGM_CHAOS", "heavy:0x10"}, chaos_seed_from_env, "16/0.500000"},
      {{"YGM_CHAOS", "light"}, chaos_seed_from_env, "0/0.250000"},
      {{"YGM_CHAOS_DELAY_PROB", "1e-1"}, chaos_seed_from_env, "0/0.100000"},
      {{"YGM_STATUSZ_DIR", "/nonexistent/statusz"},
       [] { return tel::live::statusz_dir(); }, "/nonexistent/statusz"},
      {{"YGM_POSTMORTEM_OUT", "stall.json"},
       [] { return knob::get(knob::id::postmortem_out).text; }, "stall.json"},
  };
}

std::string accepted_name(const ::testing::TestParamInfo<accepted_case>& info) {
  return case_name({info.param.env, info.index});
}

INSTANTIATE_TEST_SUITE_P(Knobs, Accepted, ::testing::ValuesIn(accepted_cases()),
                         accepted_name);

TEST(KnobSyntax, CreditBytesReachesEveryWorld) {
  const scoped_env env("YGM_CREDIT_BYTES", "0x100000");
  ygm::launch(inproc(2), [](sim::comm& c) {
    ygm::core::comm_world world(c, ygm::routing::topology(1, 2),
                                ygm::routing::scheme_kind::no_route);
    EXPECT_EQ(world.credit_bytes(), std::size_t{1} << 20);
  });
}

}  // namespace
