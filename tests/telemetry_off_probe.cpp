// Compile-out probe: this TU is compiled with YGM_TELEMETRY_DISABLED=1
// (the macro -DYGM_TELEMETRY=OFF defines globally) against the same
// headers the instrumented build uses. It is an OBJECT-library member that
// is never linked — building it IS the test: the live-telemetry layer and
// the mailbox hot paths that feed it must compile away cleanly when the
// telemetry subsystem is off.
#include "core/mailbox.hpp"
#include "telemetry/live.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/statusz.hpp"
#include "telemetry/telemetry.hpp"

static_assert(true, "");  // silence no-op-TU lints

// The instrumented template must instantiate fully with tls() pinned to
// nullptr — this is what catches a hook call that only compiles when the
// telemetry subsystem is on.
struct off_probe_msg {
  int v = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & v;
  }
};
template class ygm::core::mailbox<off_probe_msg>;

// Exercise the inline feed helpers in a reachable (but never called)
// function so they cannot rot behind the macro.
void ygm_telemetry_off_probe() {
  namespace tel = ygm::telemetry;
  tel::add(tel::fast_counter::deliveries);
  tel::live::gauge_set(tel::live::gauge::queued_bytes, 1.0);
  tel::live::note_latency(0, tel::live::latency_kind::e2e, 1.0);
  auto services = tel::live::make_process_services();
  (void)services;
}
