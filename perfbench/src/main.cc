// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// mhx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --work-dir <dir>
//
// Prints a summary line and, as the last line, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Exits non-zero without a
// result when the arguments are bad or the workload cannot be set up.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "mhx_perfbench: %s\nusage: mhx_perfbench --workload "
               "<edition_serve|corpus_churn|commit_churn> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (!perfbench::IsWorkload(config.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed) return Usage("--seed must be a whole number");
  if (config.work_dir.empty()) return Usage("--work-dir is required");

  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(config, &result, &error)) {
    std::fprintf(stderr, "mhx_perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("# %s\n%s\n", result.summary.c_str(),
              result.report.Json(result.correct, result.attempted,
                                 result.failed)
                  .c_str());
  return 0;
}
