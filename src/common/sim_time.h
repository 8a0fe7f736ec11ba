// Simulated time.
//
// Fleet experiments run in discrete simulated time. SimTime is a strong type over seconds so
// that durations, wall-clock, and core-ages cannot be mixed up with op counts or cycle counts.
// The fleet loop advances a SimClock; everything downstream (aging defects, screening cadence,
// report-rate time series) reads the clock rather than keeping private time.

#ifndef MERCURIAL_SRC_COMMON_SIM_TIME_H_
#define MERCURIAL_SRC_COMMON_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace mercurial {

// A point (or duration) in simulated time, in whole seconds. Negative values are permitted for
// durations; fleet time starts at zero.
class SimTime {
 public:
  constexpr SimTime() : seconds_(0) {}
  constexpr explicit SimTime(int64_t seconds) : seconds_(seconds) {}

  static constexpr SimTime Seconds(int64_t n) { return SimTime(n); }
  static constexpr SimTime Minutes(int64_t n) { return SimTime(n * 60); }
  static constexpr SimTime Hours(int64_t n) { return SimTime(n * 3600); }
  static constexpr SimTime Days(int64_t n) { return SimTime(n * 86400); }
  static constexpr SimTime Weeks(int64_t n) { return SimTime(n * 7 * 86400); }

  constexpr int64_t seconds() const { return seconds_; }
  constexpr double hours() const { return static_cast<double>(seconds_) / 3600.0; }
  constexpr double days() const { return static_cast<double>(seconds_) / 86400.0; }
  constexpr double weeks() const { return static_cast<double>(seconds_) / (7.0 * 86400.0); }
  constexpr double years() const { return static_cast<double>(seconds_) / (365.0 * 86400.0); }

  constexpr SimTime operator+(SimTime other) const { return SimTime(seconds_ + other.seconds_); }
  constexpr SimTime operator-(SimTime other) const { return SimTime(seconds_ - other.seconds_); }
  constexpr SimTime operator*(int64_t k) const { return SimTime(seconds_ * k); }
  SimTime& operator+=(SimTime other) {
    seconds_ += other.seconds_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  std::string ToString() const;

 private:
  int64_t seconds_;
};

class Rng;

// Retry backoff of the control plane and repair: attempt k waits base * 2^(k-1) (shift capped
// at 20), times a factor in [1-j, 1+j] that de-correlates synchronized retries (one draw from
// `rng` when jitter > 0), floored at one second.
SimTime JitteredBackoff(SimTime base, double jitter, int attempts, Rng& rng);

// Monotonic simulated clock owned by a simulation loop.
class SimClock {
 public:
  SimClock() = default;

  SimTime now() const { return now_; }

  // Advances the clock. `delta` must be non-negative.
  void Advance(SimTime delta);

  // Jumps to an absolute time >= now.
  void AdvanceTo(SimTime when);

 private:
  SimTime now_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_SIM_TIME_H_
