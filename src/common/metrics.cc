#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace memdb {

MetricsRegistry::Labels MetricsRegistry::Normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string MetricsRegistry::EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string MetricsRegistry::SeriesName(const std::string& name,
                                        const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  out += "}";
  return out;
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  MutexLock lock(&mu_);
  help_[name] = help;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  MutexLock lock(&mu_);
  auto& slot = counters_[{name, Normalized(labels)}];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[{name, Normalized(labels)}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[{name, Normalized(labels)}];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const Labels& labels) const {
  MutexLock lock(&mu_);
  auto it = counters_.find({name, Normalized(labels)});
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const Labels& labels) const {
  MutexLock lock(&mu_);
  auto it = gauges_.find({name, Normalized(labels)});
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const Labels& labels) const {
  MutexLock lock(&mu_);
  auto it = histograms_.find({name, Normalized(labels)});
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<MetricsRegistry::Labels, const Counter*>>
MetricsRegistry::CounterSeries(const std::string& name) const {
  MutexLock lock(&mu_);
  std::vector<std::pair<Labels, const Counter*>> out;
  for (auto it = counters_.lower_bound({name, Labels{}});
       it != counters_.end() && it->first.first == name; ++it) {
    out.emplace_back(it->first.second, it->second.get());
  }
  return out;
}

std::vector<std::pair<MetricsRegistry::Labels, const Histogram*>>
MetricsRegistry::HistogramSeries(const std::string& name) const {
  MutexLock lock(&mu_);
  std::vector<std::pair<Labels, const Histogram*>> out;
  for (auto it = histograms_.lower_bound({name, Labels{}});
       it != histograms_.end() && it->first.first == name; ++it) {
    out.emplace_back(it->first.second, it->second.get());
  }
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot snap;
  for (const auto& [key, c] : counters_) {
    snap.values[SeriesName(key.first, key.second)] =
        static_cast<int64_t>(c->value());
  }
  for (const auto& [key, g] : gauges_) {
    snap.values[SeriesName(key.first, key.second)] = g->value();
  }
  for (const auto& [key, h] : histograms_) {
    snap.values[SeriesName(key.first + "_count", key.second)] =
        static_cast<int64_t>(h->count());
    snap.values[SeriesName(key.first + "_sum", key.second)] =
        static_cast<int64_t>(h->sum() / h->scale());
  }
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::Delta(const Snapshot& later,
                                                 const Snapshot& earlier) {
  Snapshot out;
  for (const auto& [name, v] : later.values) {
    auto it = earlier.values.find(name);
    out.values[name] = v - (it == earlier.values.end() ? 0 : it->second);
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [key, c] : counters_) c->Reset();
  for (auto& [key, g] : gauges_) g->Set(0);
  for (auto& [key, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ExpositionText() const {
  MutexLock lock(&mu_);
  std::string out;
  std::string last_family;
  // Prometheus text format: each family's samples are preceded by its
  // `# HELP` and `# TYPE` lines exactly once.
  auto type_line = [&](const std::string& family, const char* type) {
    if (family != last_family) {
      auto help = help_.find(family);
      out += "# HELP " + family + " " +
             (help != help_.end() ? help->second
                                  : std::string("memorydb metric ") + family) +
             "\n";
      out += "# TYPE " + family + " " + type + "\n";
      last_family = family;
    }
  };
  for (const auto& [key, c] : counters_) {
    type_line(key.first, "counter");
    out += SeriesName(key.first, key.second) + " " +
           std::to_string(c->value()) + "\n";
  }
  last_family.clear();
  for (const auto& [key, g] : gauges_) {
    type_line(key.first, "gauge");
    out += SeriesName(key.first, key.second) + " " +
           std::to_string(g->value()) + "\n";
  }
  last_family.clear();
  // A scaled histogram reports in its family's unit, with the extra
  // resolution as decimals.
  auto value = [](uint64_t v, uint32_t scale) {
    if (scale <= 1) return std::to_string(v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(v) / static_cast<double>(scale));
    return std::string(buf);
  };
  for (const auto& [key, h] : histograms_) {
    type_line(key.first, "summary");
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "0.5"},
          std::pair<double, const char*>{0.99, "0.99"},
          std::pair<double, const char*>{0.999, "0.999"}}) {
      Labels with_q = key.second;
      with_q.emplace_back("quantile", label);
      out += SeriesName(key.first, with_q) + " " +
             value(h->Percentile(q), h->scale()) + "\n";
    }
    out += SeriesName(key.first + "_count", key.second) + " " +
           std::to_string(h->count()) + "\n";
    out += SeriesName(key.first + "_sum", key.second) + " " +
           value(h->sum(), h->scale()) + "\n";
  }
  return out;
}

bool MetricsRegistry::ParseSeries(const std::string& exposition,
                                  const std::string& series, double* out) {
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    // A sample line is "<series> <value>"; match the series prefix exactly.
    if (eol > pos + series.size() &&
        exposition.compare(pos, series.size(), series) == 0 &&
        exposition[pos + series.size()] == ' ') {
      *out = std::atof(exposition.c_str() + pos + series.size() + 1);
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

}  // namespace memdb
