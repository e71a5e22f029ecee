// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "document.h"
#include "goddag/persist.h"
#include "regex/regex.h"
#include "xml/parser.h"
#include "xpath/axes.h"
#include "xpath/kernels.h"
#include "xquery/parser.h"
#include "xquery/planner.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 3;
constexpr int kFrontEndRepetitions = 100;
constexpr int kReplayPasses = 3;

double UsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now()) * 1000.0;
}

// Median wall time of `reps` calls of `fn`, in µs.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(UsSince(start));
  }
  return Median(std::move(samples));
}

}  // namespace

bool ReportSetupLayers(const std::vector<mhx::workload::EditionConfig>& configs,
                       const std::string& dir, Report* report,
                       std::string* error) {
  enum { kGenerate, kParse, kBuild, kIndex, kStats, kWrite, kLoad, kLayers };
  std::vector<double> totals[kLayers];
  double arena_bytes = 0.0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    double ms[kLayers] = {};
    arena_bytes = 0.0;
    for (size_t i = 0; i < configs.size(); ++i) {
      auto start = Clock::now();
      const mhx::workload::Edition edition =
          mhx::workload::GenerateEdition(configs[i]);
      ms[kGenerate] += MsBetween(start, Clock::now());

      const std::string* encodings[] = {
          &edition.physical_xml, &edition.structural_xml,
          &edition.restoration_xml, &edition.condition_xml};
      start = Clock::now();
      for (const std::string* xml : encodings) {
        if (!mhx::xml::Parse(*xml).ok()) {
          *error = "xml::Parse rejected a generated encoding";
          return false;
        }
      }
      ms[kParse] += MsBetween(start, Clock::now());

      start = Clock::now();
      mhx::MultihierarchicalDocument::Builder builder;
      builder.SetBaseText(edition.base_text);
      builder.AddHierarchy("physical", edition.physical_xml);
      builder.AddHierarchy("structural", edition.structural_xml);
      builder.AddHierarchy("restoration", edition.restoration_xml);
      builder.AddHierarchy("condition", edition.condition_xml);
      auto doc = builder.Build();
      ms[kBuild] += MsBetween(start, Clock::now());
      if (!doc.ok()) {
        *error = "Builder::Build: " + doc.status().ToString();
        return false;
      }
      const auto snapshot = doc->PinSnapshot();
      start = Clock::now();
      snapshot->EnsureIndex();
      ms[kIndex] += MsBetween(start, Clock::now());
      start = Clock::now();
      snapshot->EnsureStats();
      ms[kStats] += MsBetween(start, Clock::now());

      const std::string path =
          dir + "/layer-" + std::to_string(i) + ".mhxa";
      start = Clock::now();
      const mhx::Status written =
          mhx::goddag::WriteSnapshotFile(*snapshot, path);
      ms[kWrite] += MsBetween(start, Clock::now());
      if (!written.ok()) {
        *error = "WriteSnapshotFile: " + written.ToString();
        return false;
      }
      arena_bytes += static_cast<double>(std::filesystem::file_size(path));
      start = Clock::now();
      auto mapped = mhx::goddag::LoadSnapshotFile(path);
      ms[kLoad] += MsBetween(start, Clock::now());
      if (!mapped.ok()) {
        *error = "LoadSnapshotFile: " + mapped.status().ToString();
        return false;
      }
      std::filesystem::remove(path);
    }
    for (int layer = 0; layer < kLayers; ++layer) {
      totals[layer].push_back(ms[layer]);
    }
  }
  report->Add("workload.generate_ms", Median(totals[kGenerate]), "ms");
  report->Add("xml.parse_ms", Median(totals[kParse]), "ms");
  report->Add("document.build_ms", Median(totals[kBuild]), "ms");
  report->Add("goddag.index_build_ms", Median(totals[kIndex]), "ms");
  report->Add("goddag.stats_build_ms", Median(totals[kStats]), "ms");
  report->Add("goddag.arena_write_ms", Median(totals[kWrite]), "ms");
  report->Add("goddag.arena_load_ms", Median(totals[kLoad]), "ms");
  report->Add("goddag.arena_bytes", arena_bytes, "bytes");
  return true;
}

bool ReportQueryLayers(const mhx::goddag::DocumentSnapshot& snapshot,
                       Report* report, std::string* error) {
  // XQuery front end and planner, per shape.
  for (int s = 0; s < kShapeCount; ++s) {
    const std::string shape = kShapeNames[s];
    auto parsed = mhx::xquery::ParseQuery(kShapeQueries[s]);
    if (!parsed.ok()) {
      *error = "ParseQuery(" + shape + "): " + parsed.status().ToString();
      return false;
    }
    report->Add("xquery.parse_us." + shape, MedianUs(kFrontEndRepetitions, [&] {
                  (void)mhx::xquery::ParseQuery(kShapeQueries[s]);
                }),
                "us");
    const mhx::xquery::Expr& expr = **parsed;
    report->Add("xquery.plan_us." + shape, MedianUs(kFrontEndRepetitions, [&] {
                  (void)mhx::xquery::PlanQuery(expr.root(), snapshot.stats(),
                                               snapshot.version());
                }),
                "us");
  }

  // The word contexts every extended-axis replay and the regex start from.
  const mhx::goddag::KyGoddag& goddag = snapshot.goddag();
  std::vector<mhx::goddag::NodeId> words;
  for (size_t h = 0; h < goddag.hierarchy_table_size(); ++h) {
    const mhx::goddag::Hierarchy& hierarchy = goddag.hierarchy(h);
    if (!hierarchy.active || hierarchy.name != "structural") continue;
    for (mhx::goddag::NodeId id : hierarchy.nodes) {
      if (goddag.node(id).name == "w") words.push_back(id);
    }
  }
  if (words.empty()) {
    *error = "served snapshot has no w elements";
    return false;
  }
  const double contexts = static_cast<double>(words.size());

  // w -> dmg / res, as in I.2 and III.1: the index probe the evaluator
  // runs against the kernel scan over the packed ranges.
  const mhx::goddag::SnapshotStats& stats = snapshot.stats();
  const mhx::xpath::AxisEvaluator axes(&snapshot);
  const mhx::xpath::NodeTest tests[] = {mhx::xpath::NodeTest::Name("dmg"),
                                        mhx::xpath::NodeTest::Name("res")};
  const struct {
    mhx::xpath::Axis axis;
    const char* name;
  } replayed[] = {{mhx::xpath::Axis::kXAncestor, "xancestor"},
                  {mhx::xpath::Axis::kXDescendant, "xdescendant"},
                  {mhx::xpath::Axis::kOverlapping, "overlapping"}};
  for (const auto& [axis, axis_name] : replayed) {
    std::vector<double> probe_ms, scan_ms;
    size_t hits = 0;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      std::vector<std::vector<mhx::goddag::NodeId>> probed;
      probed.reserve(words.size() * 2);
      auto start = Clock::now();
      for (mhx::goddag::NodeId w : words) {
        for (const auto& test : tests) {
          probed.push_back(axes.Evaluate(w, axis, test));
        }
      }
      probe_ms.push_back(MsBetween(start, Clock::now()));

      std::vector<std::vector<mhx::goddag::NodeId>> scanned(probed.size());
      start = Clock::now();
      size_t k = 0;
      for (mhx::goddag::NodeId w : words) {
        for (const auto& test : tests) {
          mhx::xpath::ScanExtendedAxis(
              stats.soa(), axis, goddag.node(w).range, w,
              stats.name_key(test.name()), mhx::xpath::KernelIsa::kAuto,
              &scanned[k++]);
        }
      }
      scan_ms.push_back(MsBetween(start, Clock::now()));

      hits = 0;
      for (size_t i = 0; i < probed.size(); ++i) {
        std::sort(probed[i].begin(), probed[i].end());
        std::sort(scanned[i].begin(), scanned[i].end());
        if (probed[i] != scanned[i]) {
          *error = std::string("index probe and kernel scan disagree on ") +
                   axis_name;
          return false;
        }
        hits += probed[i].size();
      }
    }
    report->Add(std::string("xpath.probe_us_per_ctx.") + axis_name,
                Median(probe_ms) * 1000.0 / contexts, "us");
    report->Add(std::string("xpath.scan_us_per_ctx.") + axis_name,
                Median(scan_ms) * 1000.0 / contexts, "us");
    report->Add(std::string("xpath.hits_per_ctx.") + axis_name,
                static_cast<double>(hits) / contexts, "count");
  }

  // The word regex of I.1 and II.1.
  auto compiled = mhx::regex::Regex::Compile(kWordPattern);
  if (!compiled.ok()) {
    *error = "Regex::Compile: " + compiled.status().ToString();
    return false;
  }
  report->Add("regex.compile_us", MedianUs(kFrontEndRepetitions, [] {
                (void)mhx::regex::Regex::Compile(kWordPattern);
              }),
              "us");
  const std::string_view text = goddag.base_text();
  std::vector<double> find_ms;
  size_t matches = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    matches = 0;
    const auto start = Clock::now();
    for (mhx::goddag::NodeId w : words) {
      const mhx::TextRange& range = goddag.node(w).range;
      matches += compiled->FindAll(text.substr(range.begin, range.length()))
                     .size();
    }
    find_ms.push_back(MsBetween(start, Clock::now()));
  }
  report->Add("regex.findall_us_per_w", Median(find_ms) * 1000.0 / contexts,
              "us");
  report->Add("regex.matches_per_w", static_cast<double>(matches) / contexts,
              "count");
  return true;
}

}  // namespace perfbench
