// Transaction-level timing primitives for the cycle-approximate
// simulator.
//
// Rather than a callback-driven event queue, the simulator schedules
// work onto Timeline resources: each resource serializes its operations
// (an operation starts no earlier than both its data-ready time and the
// resource's previous completion) and accumulates busy time for the
// utilization reports (Fig. 9). This is the standard modeling level for
// pipelined accelerators where each unit processes requests in order.
// Timelines are unnamed (the array simulator keeps three per tile and
// addresses them by tile index); a Channel's name labels its trace track.
#pragma once

#include <algorithm>
#include <string>

namespace hsvd::versal {

class Timeline {
 public:
  // Schedules an operation of `duration` seconds that cannot start before
  // `ready`. Returns the completion time.
  double schedule(double ready, double duration) {
    const double start = std::max(ready, next_free_);
    next_free_ = start + duration;
    busy_ += duration;
    last_start_ = start;
    return next_free_;
  }

  double next_free() const { return next_free_; }
  double busy_seconds() const { return busy_; }
  double last_start() const { return last_start_; }

  void reset() {
    next_free_ = 0;
    busy_ = 0;
    last_start_ = 0;
  }

 private:
  double next_free_ = 0;
  double busy_ = 0;
  double last_start_ = 0;
};

// A bandwidth-limited channel: transfer duration = bytes / rate, plus a
// fixed per-transfer overhead (header/latch cycles).
class Channel {
 public:
  Channel(std::string name, double bytes_per_second, double overhead_s = 0.0)
      : name_(std::move(name)),
        rate_(bytes_per_second),
        overhead_(overhead_s) {}

  double transfer(double ready, double bytes) {
    return timeline_.schedule(ready, overhead_ + bytes / rate_);
  }

  double transfer_duration(double bytes) const { return overhead_ + bytes / rate_; }

  const std::string& name() const { return name_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  double rate() const { return rate_; }

  // Permanently scales the channel's bandwidth (degraded link fault
  // model); `factor` must be in (0, 1].
  void degrade(double factor) {
    if (factor > 0.0 && factor <= 1.0) rate_ *= factor;
  }

 private:
  std::string name_;
  Timeline timeline_;
  double rate_;
  double overhead_;
};

}  // namespace hsvd::versal
