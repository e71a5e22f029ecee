// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The benchmark's three workloads (see perfbench/README.md for why each
// exists): `edition_serve`, `corpus_churn` and `commit_churn`. Each drives
// the public API — CorpusService queries and its write path — from one
// seeded schedule, verifies every result against a serial reference, and
// reports either the end-to-end metrics (untraced run) or the per-layer
// split (traced run).

#ifndef MHX_PERFBENCH_WORKLOADS_H_
#define MHX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for arena spill files; must exist.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
  // One human-readable line of sample counts and invariants.
  std::string summary;
};

bool IsWorkload(const std::string& name);

// Runs one workload. Returns false with `error` set when the run could not
// be carried out at all (set-up failure); verification failures are
// reported through RunResult instead.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace perfbench

#endif  // MHX_PERFBENCH_WORKLOADS_H_
