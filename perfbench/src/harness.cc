// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

const char* const kShapeNames[kShapeCount] = {"i1", "i2", "ii1", "iii1"};

const char* const kShapeQueries[kShapeCount] = {
    // I.1: lines containing a matching word, overlap-aware.
    R"(
for $l in /descendant::line[xdescendant::w[matches(string(.), ".*ea.*")] or
                            overlapping::w[matches(string(.), ".*ea.*")]]
return <line>{string($l)}</line>)",
    // I.2: every line with damaged words highlighted, walking shared leaves.
    R"(
for $l in /descendant::line
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))",
    // II.1: analyze-string() re-partitioning of matching words.
    R"(
for $w in /descendant::w[matches(string(.), ".*ea.*")]
return (
  let $r := analyze-string($w, ".*ea.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))",
    // III.1: restored text in italics.
    R"(
for $leaf in /descendant::leaf()
return if ($leaf/xancestor::res) then <i>{$leaf}</i> else $leaf)",
};

const char* const kWordPattern = ".*ea.*";

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  return Mix64(Mix64(seed) ^ (purpose * 0xd6e8feb86659fd93ull));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double CalibrationMs() {
  constexpr size_t kWords = 20000;
  const auto start = Clock::now();
  std::vector<std::string> words;
  words.reserve(kWords);
  uint64_t x = 0x243f6a8885a308d3ull;
  for (size_t i = 0; i < kWords; ++i) {
    x = Mix64(x);
    words.push_back(std::to_string(x % 1000003));
  }
  std::sort(words.begin(), words.end());
  std::unordered_map<std::string, uint32_t> counts;
  for (const std::string& w : words) ++counts[w];
  const double ms = MsBetween(start, Clock::now());
  // Uses the result, so the work cannot be optimised away.
  return counts.empty() ? -1.0 : ms;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit; non-finite values cannot be JSON numbers.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
