// Cancellable discrete-event queue.
//
// Schedulers register future events (job completions, timed wakeups) and may
// cancel them (e.g. Rule 1 interrupts the running job, voiding its scheduled
// completion). The production implementation is the machine-indexed
// tournament tree of util/event_queue.hpp (O(1) peek, eager cancellation,
// O(log m) updates); EventQueue below aliases it.
#pragma once

#include "util/event_queue.hpp"

namespace osched {

/// Production event queue: the tournament tree over machines.
using EventQueue = util::TournamentEventQueue;

}  // namespace osched
