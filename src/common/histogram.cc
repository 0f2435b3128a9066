#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace memdb {

namespace {

// Relaxed is sufficient everywhere in this file: instruments carry no
// cross-thread happens-before obligations, only eventually-consistent totals.
void AtomicMin(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v < cur && !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur && !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram()
    : buckets_(std::make_unique<std::atomic<uint64_t>[]>(kBuckets)) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(const Histogram& other) : Histogram() {
  Merge(other);
  set_scale(other.scale());
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this != &other) {
    Reset();
    Merge(other);
    set_scale(other.scale());
  }
  return *this;
}

int Histogram::BucketFor(uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((v >> shift) & (kSub - 1));
  return (msb - kSubBits + 1) * kSub + sub;
}

uint64_t Histogram::BucketValue(int index) {
  const int major = index / kSub;
  const int sub = index % kSub;
  if (major == 0) return static_cast<uint64_t>(sub);
  const int msb = major + kSubBits - 1;
  // Midpoint of the sub-bucket range.
  const uint64_t base =
      (1ULL << msb) | (static_cast<uint64_t>(sub) << (msb - kSubBits));
  const uint64_t width = 1ULL << (msb - kSubBits);
  return base + width / 2;
}

void Histogram::Record(uint64_t value_us) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value_us, std::memory_order_relaxed);
  AtomicMin(&min_, value_us);
  AtomicMax(&max_, value_us);
  buckets_[static_cast<size_t>(BucketFor(value_us))].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  AtomicMin(&min_, other.min_.load(std::memory_order_relaxed));
  AtomicMax(&max_, other.max_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

uint64_t Histogram::Percentile(double q) const {
  const uint64_t c = count();
  if (c == 0) return 0;
  const uint64_t mx = max();
  if (q >= 1.0) return mx;
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(c));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) {
      uint64_t v = BucketValue(static_cast<int>(i));
      return std::clamp(v, min(), mx);
    }
  }
  return mx;
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1fus p50=%lluus p99=%lluus p100=%lluus",
                static_cast<unsigned long long>(count()), Mean(),
                static_cast<unsigned long long>(Percentile(0.50)),
                static_cast<unsigned long long>(Percentile(0.99)),
                static_cast<unsigned long long>(max()));
  return buf;
}

}  // namespace memdb
