// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Benchmark-side spans around single layers' public entry points, for the
// traced run's per-layer split. Each replay calls one module directly on a
// workload's own inputs, outside the serving loop, so it attributes time to
// that module alone.

#ifndef MHX_PERFBENCH_LAYERS_H_
#define MHX_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "goddag/snapshot.h"
#include "harness.h"
#include "workload/generator.h"

namespace perfbench {

// The set-up pipeline, module by module, for every edition of a workload:
// workload generation, XML parsing, document build, index and stats
// builds, arena write and arena load. Reports each as the workload's total
// (summed over editions, median over repetitions). Arena files go to
// `dir` and are removed again. Returns false with `error` set when a layer
// fails.
bool ReportSetupLayers(const std::vector<mhx::workload::EditionConfig>& configs,
                       const std::string& dir, Report* report,
                       std::string* error);

// Query-side layers on one served snapshot: XQuery parse and plan per
// shape, the extended-axis `w`-to-`dmg`/`res` steps by index probe and by
// kernel scan, and the word regex. Returns false with `error` set when a
// layer fails or the probe and the scan disagree.
bool ReportQueryLayers(const mhx::goddag::DocumentSnapshot& snapshot,
                       Report* report, std::string* error);

}  // namespace perfbench

#endif  // MHX_PERFBENCH_LAYERS_H_
