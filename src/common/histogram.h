// Log-bucketed latency histogram (HdrHistogram-style) used by the benchmark
// harness and by per-node metrics. Values are recorded in microseconds,
// or in a finer unit when a scale is set (see set_scale).
//
// Thread-safety: Record() is lock-free and safe to call concurrently with
// readers and other writers (relaxed atomics per bucket). Readers observe a
// possibly-torn but monotonically-consistent view — good enough for metrics
// scrapes, which is exactly how shared registries are used once real
// threads (net loop, rpc client loop) feed one registry. Merge/Reset are
// not atomic as a whole and are meant for single-writer phases.

#ifndef MEMDB_COMMON_HISTOGRAM_H_
#define MEMDB_COMMON_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace memdb {

class Histogram {
 public:
  Histogram();
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(uint64_t value_us);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return count() == 0 ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  // q in [0, 1]; Percentile(0.99) is p99. Returns a bucket-representative
  // value (≤ ~3.2% relative error by construction).
  uint64_t Percentile(double q) const;

  std::string Summary() const;  // "p50=... p99=... p100=... mean=..."

  // Recorded units per reported unit: 1000 for a *_us histogram fed in
  // nanoseconds, so sub-microsecond samples keep their resolution. Record,
  // sum and Percentile stay in recorded units; readers that report them
  // (METRICS exposition, INFO) divide by the scale.
  void set_scale(uint32_t scale) {
    scale_.store(scale, std::memory_order_relaxed);
  }
  uint32_t scale() const { return scale_.load(std::memory_order_relaxed); }

 private:
  // Buckets: 64 powers-of-two, each split into 32 linear sub-buckets.
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr size_t kBuckets = 64 * kSub;
  static int BucketFor(uint64_t v);
  static uint64_t BucketValue(int index);

  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint32_t> scale_{1};
};

}  // namespace memdb

#endif  // MEMDB_COMMON_HISTOGRAM_H_
