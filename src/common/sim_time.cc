#include "src/common/sim_time.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace mercurial {

SimTime JitteredBackoff(SimTime base, double jitter, int attempts, Rng& rng) {
  const int shift = std::min(attempts - 1, 20);
  double delay = static_cast<double>(base.seconds()) * static_cast<double>(uint64_t{1} << shift);
  if (jitter > 0.0) {
    delay *= 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  }
  return SimTime::Seconds(std::max<int64_t>(1, static_cast<int64_t>(delay)));
}

std::string SimTime::ToString() const {
  const int64_t total = seconds_;
  const int64_t days = total / 86400;
  const int64_t rem = total % 86400;
  const int64_t hours = rem / 3600;
  const int64_t minutes = (rem % 3600) / 60;
  const int64_t seconds = rem % 60;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%lldd %02lld:%02lld:%02lld",
                static_cast<long long>(days), static_cast<long long>(hours),
                static_cast<long long>(minutes), static_cast<long long>(seconds));
  return buffer;
}

void SimClock::Advance(SimTime delta) {
  MERCURIAL_CHECK_GE(delta.seconds(), 0);
  now_ += delta;
}

void SimClock::AdvanceTo(SimTime when) {
  MERCURIAL_CHECK_GE(when.seconds(), now_.seconds());
  now_ = when;
}

}  // namespace mercurial
