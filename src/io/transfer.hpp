#pragma once

// Blocking-wait helpers shared by the io/ stack: a rank process sends data
// through the fabric (or waits for a device completion time) and suspends
// until the corresponding event fires.  Elapsed time is booked to the
// rank's I/O account.

#include "extoll/fabric.hpp"
#include "pmpi/env.hpp"

namespace cbsim::io {

/// Moves `bytes` from endpoint `srcEp` to `dstEp` and blocks the calling
/// rank until delivery.  Uses the fabric's reliable-connection send so a
/// fault-plan loss retries at the NIC instead of suspending the rank
/// forever.  A rank that died while waiting is skipped: reap recycled its
/// stack at once, so `done` may now lie in another rank's frames.
inline void awaitTransfer(pmpi::Env& env, extoll::Fabric& fabric, int srcEp,
                          int dstEp, double bytes) {
  bool done = false;
  sim::Engine& engine = fabric.machine().engine();
  sim::Process& proc = env.ctx().process();
  const double t0 = env.wtime();
  fabric.sendReliable(srcEp, dstEp, bytes, [&done, &engine, &proc] {
    if (!proc.live()) return;
    done = true;
    engine.wake(proc);
  });
  while (!done) env.ctx().suspend();
  env.noteIo(env.wtime() - t0);
}

/// Blocks the calling rank until the absolute simulated time `when`
/// (no-op if it already passed), charging the I/O account.
inline void awaitUntil(pmpi::Env& env, sim::SimTime when) {
  const sim::SimTime now = env.ctx().now();
  if (when > now) env.ioDelay(when - now);
}

}  // namespace cbsim::io
