// Layer spans for the traced benchmark run.
//
// The traced driver wraps every call it makes into a layer's public functions in a span.
// Spans nest: a span that starts while another is open is that span's child, and the
// parent's self time is its duration minus the time its children cover. Spans are not kept
// one by one (a fleet-year study makes millions of workload calls); each layer keeps its
// running totals, plus one sample per tick for the layers that ran in that tick, which is
// what the per-tick p50/p99 come from.
//
// Times are host nanoseconds from a steady clock. Begin/End take the time explicitly so the
// arithmetic can be tested with synthetic clocks; Scope reads the steady clock.

#ifndef STUDYBENCH_SRC_SPANS_H_
#define STUDYBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace studybench {

class SpanTracer {
 public:
  struct Layer {
    std::string name;
    uint64_t calls = 0;
    int64_t total_ns = 0;  // sum of span durations (nested calls of the same layer count twice)
    int64_t self_ns = 0;   // sum of durations minus time covered by child spans
    int64_t tick_ns = 0;   // this tick's running duration; folded into tick_samples at EndTick
    uint64_t tick_calls = 0;
    std::vector<int64_t> tick_samples_ns;  // one per tick in which the layer ran
  };

  // Registers a layer and returns its id. Ids are dense, in registration order.
  int AddLayer(std::string name);

  void Begin(int layer, int64_t now_ns);
  // Closes the innermost open span.
  void End(int64_t now_ns);
  // Folds each layer's per-tick accumulation into a sample, if the layer ran this tick.
  void EndTick();

  const Layer& layer(int id) const { return layers_[static_cast<size_t>(id)]; }
  size_t layer_count() const { return layers_.size(); }
  size_t open_spans() const { return stack_.size(); }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // RAII span timed by the steady clock.
  class Scope {
   public:
    Scope(SpanTracer& tracer, int layer) : tracer_(tracer) { tracer_.Begin(layer, NowNs()); }
    ~Scope() { tracer_.End(NowNs()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer& tracer_;
  };

 private:
  struct Open {
    int layer = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };
  std::vector<Layer> layers_;
  std::vector<Open> stack_;
};

// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for an empty set.
int64_t QuantileNs(std::vector<int64_t> samples, double q);

}  // namespace studybench

#endif  // STUDYBENCH_SRC_SPANS_H_
