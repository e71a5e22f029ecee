// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Shared pieces of the end-to-end benchmark program: the four Section 4
// query shapes in their edition-generic form, seeded randomness, exact
// sample statistics, and the result report printed as the program's last
// line of output.

#ifndef MHX_PERFBENCH_HARNESS_H_
#define MHX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// The Section 4 scenarios, edition-generic: the verbatim paper texts pin
// words of the Figure 1 manuscript that a generated edition lacks, so the
// shapes keep the paper's structure over the `.*ea.*` word class.
enum Shape : uint8_t { kI1 = 0, kI2, kII1, kIII1, kShapeCount };
extern const char* const kShapeNames[kShapeCount];    // "i1", "i2", ...
extern const char* const kShapeQueries[kShapeCount];
// The regex both I.1 and II.1 use.
extern const char* const kWordPattern;

// splitmix64: platform-independent, so one seed gives one schedule
// everywhere.
uint64_t Mix64(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix64(state_);
  }
  // Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// A seed for one named purpose, so that changing how one schedule draws
// numbers never shifts another.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// The machine-speed yardstick. The benchmark shares its cores with other
// tenants whose load shifts the speed of memory-heavy code by up to ~1.7x
// for minutes at a time. CalibrationMs() times one fixed unit of
// allocation-, string- and hash-heavy work that uses no mhx code, so a run
// can scale its times to a reference speed: time * kReferenceCalibrationMs
// / median(calibration). mhx's own speed still moves the scaled figures
// one for one; only the machine's drift cancels.
double CalibrationMs();
// What CalibrationMs() takes on an idle core of the reference box
// (4-core x86-64 VM); scaled figures read as milliseconds there.
inline constexpr double kReferenceCalibrationMs = 8.0;

// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

// The metrics of one run, printed as one JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // MHX_PERFBENCH_HARNESS_H_
