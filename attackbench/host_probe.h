// Host-speed probe: a fixed amount of register-only work, timed beside every
// oracle call, that follows the speed states of the shared host.
//
// On the reference host (a 4-core shared Xeon VM) the CPU work runs in two
// states that switch within seconds: in the slow one the same operation
// takes about 1.6x as long, with thread CPU time still equal to wall time.
// A probe run just before each oracle call sees the state that call runs
// in (correlation 0.88-0.96 with operation time, against 0.2-0.6 for a
// probe timed once before the operation), so dividing an operation's time
// by the probe's slowdown over that operation removes most of the host's
// share of the spread.  The probe touches no memory, so it does not follow
// a change in the program: a faster program reads faster at any host speed.
#pragma once

#include <span>

namespace sbm::attackbench {

/// Probe time, in seconds, that counts as slowdown 1: about what the probe
/// takes on the reference host in its fast state.  Normalised times are
/// seconds on a host that runs the probe this fast.
inline constexpr double kProbeReferenceS = 28e-6;

/// Runs the probe once and returns its wall time in seconds.
double run_host_probe();

/// One oracle call as the slowdown sees it: the probe time just before the
/// call and the call's own wall time.
struct ProbedCall {
  double probe_s = 0;
  double call_s = 0;
};

/// The operation's host slowdown: the mean over its oracle calls of
/// probe_s / kProbeReferenceS, weighted by each call's wall time.  1 when
/// there are no calls or they took no time.
double host_slowdown(std::span<const ProbedCall> calls);

}  // namespace sbm::attackbench
