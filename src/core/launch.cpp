#include "core/launch.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/knobs.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/inproc/fabric.hpp"
#include "transport/proc/launch.hpp"

namespace ygm {

namespace {

using rank_fn = std::function<std::vector<std::byte>(mpisim::comm&)>;

/// Lay the run's options over the knob table (inside the launch's
/// knob::run_scope, which restores the table after the run).
void lay_options(const run_options& o) {
  using knob::id;
  const auto n = [](auto v) { return knob::value{.num = std::uint64_t(v)}; };
  if (o.backend) knob::set(id::backend, n(*o.backend));
  if (o.progress_mode) knob::set(id::progress_mode, n(*o.progress_mode));
  if (o.chaos) {
    knob::set(id::chaos,
              {.text = o.chaos->enabled() ? o.chaos->describe() : "off"});
  }
  if (o.trace_sample) knob::set(id::trace_sample, {.real = *o.trace_sample});
  if (o.credit_bytes) knob::set(id::credit_bytes, n(*o.credit_bytes));
  if (o.outq_cap_bytes) knob::set(id::outq_cap_bytes, n(*o.outq_cap_bytes));
  if (o.sample_ms >= 0) knob::set(id::sample_ms, n(o.sample_ms));
  if (o.statusz >= 0) knob::set(id::statusz, n(o.statusz != 0));
}

/// The machinery every OS process hosting rank bodies runs beside them: the
/// progress engine (engine mode only), then the live telemetry services.
/// The engine comes up first so the sampler can detect it as its driver and
/// skip its own thread; members tear down in reverse, so the sampler stops
/// before its engine driver does.
class process_runtime {
 public:
  process_runtime(bool engine, int telemetry_world) {
    if (engine) engine_.emplace(telemetry_world);
    live_ = telemetry::live::start_services();
  }

 private:
  std::optional<progress::engine_scope> engine_;
  std::shared_ptr<void> live_;
};

std::shared_ptr<const std::vector<int>> world_members(int nranks) {
  std::vector<int> m(static_cast<std::size_t>(nranks));
  std::iota(m.begin(), m.end(), 0);
  return std::make_shared<const std::vector<int>>(std::move(m));
}

std::vector<std::vector<std::byte>> run_inproc(
    int nranks, const std::optional<transport::chaos_config>& chaos,
    bool engine, const rank_fn& fn) {
  transport::inproc::fabric fab(nranks);
  if (chaos && chaos->enabled()) fab.set_chaos(*chaos);

  // With a telemetry session installed, every rank thread records onto its
  // own (world, rank) lane; the top-level "rank.main" span covers the whole
  // rank function, so per-rank span coverage of wall time is complete by
  // construction. The engine records onto a lane of the same world.
  telemetry::session* const tsess = telemetry::global();
  const int tworld = tsess != nullptr ? tsess->begin_world(nranks) : -1;

  // Scoped so the engine and sampler stop before rethrowing and before the
  // fabric the rank endpoints lived on goes away.
  std::exception_ptr first_error;
  std::vector<std::vector<std::byte>> results(
      static_cast<std::size_t>(nranks));
  {
    const process_runtime runtime(engine, tworld);
    const auto members = world_members(nranks);
    std::mutex err_mtx;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        std::optional<telemetry::rank_scope> tscope;
        if (tsess != nullptr) tscope.emplace(*tsess, tworld, r);
        telemetry::span rank_span("rank.main");
        // The endpoint lives inside the span and the rank scope: its
        // destructor publishes transport counters onto this rank's lane.
        transport::inproc::endpoint ep(fab, r);
        mpisim::comm c(ep, members, r, transport::world_context,
                       transport::world_context + 1);
        try {
          results[static_cast<std::size_t>(r)] = fn(c);
        } catch (...) {
          {
            std::lock_guard lock(err_mtx);
            if (!first_error) first_error = std::current_exception();
          }
          ep.abort_world();
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace

std::vector<std::vector<std::byte>> launch_collect(const run_options& opts,
                                                   const rank_fn& fn) {
  YGM_CHECK(opts.nranks > 0, "launch() requires a positive rank count");
  const knob::run_scope run_knobs;
  lay_options(opts);

  // Environment-driven chaos lets the whole suite be rerun under fault
  // injection without touching a single call site; an explicit config wins
  // over the environment.
  const knob::table& k = knob::current();
  const std::optional<transport::chaos_config> chaos =
      opts.chaos ? opts.chaos : transport::chaos_config::from_knobs(k);
  const auto backend = transport::backend_kind(k[knob::id::backend].num);
  const bool engine = progress::mode(k[knob::id::progress_mode].num) ==
                      progress::mode::engine;

  if (backend == transport::backend_kind::inproc) {
    return run_inproc(opts.nranks, chaos, engine, fn);
  }
  // Process-per-rank backends: the fork launcher owns forking, rendezvous,
  // telemetry lane shipping and error propagation; the body runs in the
  // forked child, so the engine starts there — a thread would not survive
  // the fork. Children ship exactly one telemetry lane per rank back to the
  // parent, so a child engine runs without a lane of its own and folds its
  // summary counters into the rank's lane at teardown instead.
  return transport::proc::launch(
      backend, opts.nranks, chaos, opts.socket_dir,
      [&](transport::endpoint& ep) {
        const process_runtime runtime(engine, -1);
        mpisim::comm c(ep, world_members(ep.world_size()), ep.world_rank(),
                       transport::world_context, transport::world_context + 1);
        return fn(c);
      });
}

void launch(const run_options& opts,
            const std::function<void(mpisim::comm&)>& fn) {
  (void)launch_collect(opts, [&fn](mpisim::comm& c) {
    fn(c);
    return std::vector<std::byte>{};
  });
}

}  // namespace ygm
