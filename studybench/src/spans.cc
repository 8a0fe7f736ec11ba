#include "studybench/src/spans.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace studybench {

int SpanTracer::AddLayer(std::string name) {
  Layer layer;
  layer.name = std::move(name);
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size() - 1);
}

void SpanTracer::Begin(int layer, int64_t now_ns) {
  stack_.push_back(Open{layer, now_ns, 0});
}

void SpanTracer::End(int64_t now_ns) {
  if (stack_.empty()) {
    throw std::logic_error("SpanTracer::End without an open span");
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  Layer& layer = layers_[static_cast<size_t>(open.layer)];
  ++layer.calls;
  ++layer.tick_calls;
  layer.total_ns += duration;
  layer.self_ns += duration - open.child_ns;
  layer.tick_ns += duration;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
}

void SpanTracer::EndTick() {
  for (Layer& layer : layers_) {
    if (layer.tick_calls > 0) {
      layer.tick_samples_ns.push_back(layer.tick_ns);
    }
    layer.tick_ns = 0;
    layer.tick_calls = 0;
  }
}

int64_t QuantileNs(std::vector<int64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

}  // namespace studybench
