// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "corpus/corpus.h"
#include "goddag/persist.h"
#include "layers.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using mhx::corpus::CorpusOptions;
using mhx::corpus::CorpusService;
using mhx::workload::EditionConfig;

struct Spec {
  const char* name;
  size_t editions;
  size_t words;  // per edition
  size_t capacity;
  bool spill;
  size_t clients;
  unsigned query_threads;
  size_t pool_threads;
  int mix[kShapeCount];  // queries of each shape per scheduling round
  double zipf_exponent;  // edition popularity skew (one edition: unused)
  // > 0: an open-loop writer commits beside the readers at this period.
  // 0: commit latency comes from a probe on the idle service after the
  // read loop instead, so the read metrics never see a writer.
  double writer_period_ms;
  size_t block_queries;  // per-client queries per throughput block
};

// Thread budget (nproc = 4 on the reference box): edition_serve 1 client;
// corpus_churn 2 clients; commit_churn 1 reader + 2 pool workers + 1 writer.
constexpr Spec kSpecs[] = {
    {"edition_serve", 1, 6400, 1, false, 1, 1, 0, {1, 1, 1, 1}, 0.0, 0.0, 32},
    {"corpus_churn", 32, 400, 8, true, 2, 1, 0, {8, 5, 5, 2}, 1.0, 0.0, 400},
    {"commit_churn", 1, 1600, 1, true, 1, 2, 2, {8, 5, 5, 2}, 0.0, 50.0, 80},
};

// Set-up is timed as the median of this many from-scratch set-ups.
constexpr int kSetupRepetitions = 15;
// The commit probe of writer-less workloads: at least kProbeMinCommits,
// then until kProbeSeconds have passed.
constexpr int kProbeMinCommits = 24;
constexpr int kProbeMaxCommits = 400;
constexpr double kProbeSeconds = 1.0;
// Share of the words the churn hierarchy marks in one commit.
constexpr size_t kChurnOneIn = 8;
const char kChurnHierarchy[] = "bench-churn";
// Each client times the calibration unit (harness.h) between rounds at
// least this far apart: ~3% of a client's time.
constexpr double kCalibrationEveryMs = 250.0;

// Seed purposes, kept apart so one schedule's draws never shift another's.
enum : uint64_t {
  kEditionSeeds = 1ull << 20,
  kClientSeeds = 2ull << 20,
  kPopularitySeed = 3ull << 20,
  kPayloadSeeds = 4ull << 20,
};

enum Stage {
  kParseStage,
  kAdmissionStage,
  kDocBuildStage,
  kPlanLookupStage,
  kIndexStage,
  kEvaluateStage,
  kSerializeStage,
  kOtherStage,
  kStageCount
};
// Stage span names as the corpus service and the engine record them.
const char* const kStageNames[kOtherStage] = {
    "parse",       "admission_wait",    "doc_build", "plan_lookup",
    "index_materialize", "evaluate", "serialize"};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<EditionConfig> ConfigsFor(const Spec& spec, uint64_t seed) {
  std::vector<EditionConfig> configs(spec.editions);
  for (size_t i = 0; i < spec.editions; ++i) {
    configs[i].seed = DeriveSeed(seed, kEditionSeeds + i);
    configs[i].word_count = spec.words;
    configs[i].chars_per_line = 32;
    configs[i].damage_coverage = 0.12;
    configs[i].restoration_coverage = 0.15;
  }
  return configs;
}

// --- Set-up -------------------------------------------------------------

struct Service {
  std::unique_ptr<CorpusService> corpus;
  std::vector<std::string> names;
};

// Builds a service holding every edition built, indexed and (with spill)
// persisted: the state a deployment reaches before it takes traffic.
bool SetUp(const Spec& spec, const std::vector<EditionConfig>& configs,
           const std::string& spill_dir, Service* out, std::string* error) {
  CorpusOptions options;
  options.capacity = spec.capacity;
  options.pool_threads = spec.pool_threads;
  options.max_heavy_in_flight = 1;
  options.heavy_queue_limit = 4 * spec.clients;
  if (spec.spill) {
    std::filesystem::create_directories(spill_dir);
    options.spill_dir = spill_dir;
  }
  out->corpus = std::make_unique<CorpusService>(options);
  out->names.clear();
  for (size_t i = 0; i < configs.size(); ++i) {
    out->names.push_back("edition-" + std::to_string(i));
    const mhx::Status registered =
        out->corpus->Register(out->names.back(), configs[i]);
    if (!registered.ok()) {
      *error = "Register: " + registered.ToString();
      return false;
    }
  }
  for (const std::string& name : out->names) {
    auto pin = out->corpus->Pin(name);
    if (!pin.ok()) {
      *error = "Pin(" + name + "): " + pin.status().ToString();
      return false;
    }
    const auto snapshot = (*pin)->PinSnapshot();
    snapshot->EnsureIndex();
    snapshot->EnsureStats();
  }
  return true;
}

// --- The serial reference -------------------------------------------------

struct Reference {
  // Per edition, the expected output of each shape.
  std::vector<std::array<std::string, kShapeCount>> results;
  // Edition 0's word ranges: the churn hierarchy's anchors.
  std::vector<mhx::TextRange> words;
  double arena_bytes = 0.0;
  double text_bytes = 0.0;
};

// Evaluates every shape serially on independently built documents: no
// corpus, no shared plan cache, no pool, no spill.
bool BuildReference(const std::vector<EditionConfig>& configs, Reference* ref,
                    std::string* error) {
  for (size_t i = 0; i < configs.size(); ++i) {
    auto doc = mhx::workload::BuildEditionDocument(configs[i]);
    if (!doc.ok()) {
      *error = "reference build: " + doc.status().ToString();
      return false;
    }
    std::array<std::string, kShapeCount> expected;
    for (int s = 0; s < kShapeCount; ++s) {
      auto out = doc->Query(kShapeQueries[s]);
      if (!out.ok()) {
        *error = "reference query: " + out.status().ToString();
        return false;
      }
      expected[s] = std::move(out).value();
    }
    ref->results.push_back(std::move(expected));
    const auto snapshot = doc->PinSnapshot();
    auto arena = mhx::goddag::SerializeSnapshot(*snapshot);
    if (!arena.ok()) {
      *error = "SerializeSnapshot: " + arena.status().ToString();
      return false;
    }
    ref->arena_bytes += static_cast<double>(arena->size());
    ref->text_bytes += static_cast<double>(doc->base_text().size());
    if (i == 0) {
      const mhx::goddag::KyGoddag& goddag = snapshot->goddag();
      for (size_t h = 0; h < goddag.hierarchy_table_size(); ++h) {
        if (goddag.hierarchy(h).name != "structural") continue;
        for (mhx::goddag::NodeId id : goddag.hierarchy(h).nodes) {
          if (goddag.node(id).name == "w") {
            ref->words.push_back(goddag.node(id).range);
          }
        }
      }
    }
  }
  if (ref->words.empty()) {
    *error = "reference edition has no words";
    return false;
  }
  return true;
}

// The k-th commit's churn hierarchy: a seeded subset of whole words, so
// every leaf boundary it adds already exists and all four shapes read
// byte-identically at every version.
std::vector<mhx::goddag::VirtualElement> ChurnPayload(
    const std::vector<mhx::TextRange>& words, uint64_t seed, uint64_t k) {
  Rng rng(DeriveSeed(seed, kPayloadSeeds + k));
  std::vector<mhx::goddag::VirtualElement> elements;
  for (const mhx::TextRange& range : words) {
    if (rng.Below(kChurnOneIn) == 0) {
      elements.push_back(mhx::goddag::VirtualElement{"churn", range, {}});
    }
  }
  if (elements.empty()) {
    elements.push_back(mhx::goddag::VirtualElement{"churn", words[0], {}});
  }
  return elements;
}

// --- Readers ----------------------------------------------------------------

struct Sample {
  uint8_t shape;
  bool traced;
  bool ok;
  double begin_ms;  // since the loop started
  double end_ms;
};

struct TracedSample {
  uint8_t shape = 0;
  double wall_ms = 0.0;
  double stage_ms[kStageCount] = {};
  double slot_busy_ms = 0.0;
  double slot_capacity_ms = 0.0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<TracedSample> traced;
  size_t mismatches = 0;
  size_t errors = 0;
  std::string first_error;
  size_t heavy_waiting_max = 0;
  size_t live_snapshots_max = 0;
  std::vector<double> calibration_ms;
};

// Folds one query's trace into stage totals and fan-out occupancy. Slot
// spans group by loop ("loop@<offset>"); a loop offers min(threads,
// bindings) slots over its span.
TracedSample Analyze(const mhx::obs::QueryTrace& trace, uint8_t shape,
                     unsigned threads, uint64_t begin_ns, uint64_t end_ns) {
  TracedSample out;
  out.shape = shape;
  out.wall_ms = static_cast<double>(end_ns - begin_ns) / 1e6;
  struct Loop {
    uint64_t begin = UINT64_MAX;
    uint64_t end = 0;
    uint64_t busy = 0;
    uint64_t bindings = 0;
  };
  std::map<std::string, Loop> loops;
  for (const mhx::obs::QueryTrace::Span& span : trace.spans()) {
    const uint64_t ns = span.end_ns - span.begin_ns;
    if (span.kind == mhx::obs::QueryTrace::SpanKind::kStage) {
      int stage = kOtherStage;
      for (int i = 0; i < kOtherStage; ++i) {
        if (span.name == kStageNames[i]) stage = i;
      }
      out.stage_ms[stage] += static_cast<double>(ns) / 1e6;
      continue;
    }
    Loop& loop = loops[span.name.substr(0, span.name.find("/slot"))];
    loop.begin = std::min(loop.begin, span.begin_ns);
    loop.end = std::max(loop.end, span.end_ns);
    loop.busy += ns;
    loop.bindings += span.bindings;
  }
  for (const auto& [name, loop] : loops) {
    const uint64_t slots = std::min<uint64_t>(threads, loop.bindings);
    out.slot_busy_ms += static_cast<double>(loop.busy) / 1e6;
    out.slot_capacity_ms +=
        static_cast<double>(slots * (loop.end - loop.begin)) / 1e6;
  }
  return out;
}

struct LoopContext {
  const Spec* spec;
  CorpusService* corpus;
  const std::vector<std::string>* names;
  const Reference* ref;
  // Edition popularity: cumulative weights by rank, and rank -> edition.
  std::vector<double> popularity_cdf;
  std::vector<size_t> popularity_order;
  bool trace;
  Clock::time_point start;
  Clock::time_point deadline;
};

void RunQuery(const LoopContext& ctx, size_t edition, uint8_t shape,
              bool traced, ClientLog* log) {
  mhx::QueryOptions options;
  options.threads = ctx.spec->query_threads;
  std::optional<mhx::obs::QueryTrace> trace;
  uint64_t trace_begin = 0;
  if (traced) {
    trace.emplace();
    options.trace = &*trace;
    trace_begin = trace->NowNs();
  }
  const auto begin = Clock::now();
  auto out = ctx.corpus->Query((*ctx.names)[edition], kShapeQueries[shape],
                               options);
  const auto end = Clock::now();
  const uint64_t trace_end = traced ? trace->NowNs() : 0;
  bool ok = false;
  if (!out.ok()) {
    if (log->errors++ == 0) log->first_error = out.status().ToString();
  } else if (*out != ctx.ref->results[edition][shape]) {
    ++log->mismatches;
  } else {
    ok = true;
  }
  log->samples.push_back(Sample{shape, traced, ok,
                                MsBetween(ctx.start, begin),
                                MsBetween(ctx.start, end)});
  if (traced) {
    log->traced.push_back(Analyze(*trace, shape, ctx.spec->query_threads,
                                  trace_begin, trace_end));
    log->heavy_waiting_max =
        std::max(log->heavy_waiting_max, ctx.corpus->stats().heavy_waiting);
    log->live_snapshots_max = std::max(
        log->live_snapshots_max, mhx::goddag::DocumentSnapshot::live_count());
  }
}

// One closed-loop client: rounds of the workload's shape mix in seeded
// order until the deadline. In a traced run every other round is traced,
// so traced and untraced queries see the same phases of the machine.
void RunClient(const LoopContext& ctx, uint64_t seed, ClientLog* log) {
  Rng rng(seed);
  std::vector<uint8_t> round;
  for (int s = 0; s < kShapeCount; ++s) {
    round.insert(round.end(), ctx.spec->mix[s], static_cast<uint8_t>(s));
  }
  auto calibrated = Clock::now();
  for (size_t r = 0; Clock::now() < ctx.deadline; ++r) {
    if (MsBetween(calibrated, Clock::now()) >= kCalibrationEveryMs) {
      log->calibration_ms.push_back(CalibrationMs());
      calibrated = Clock::now();
    }
    rng.Shuffle(&round);
    const bool traced = ctx.trace && r % 2 == 1;
    for (uint8_t shape : round) {
      size_t edition = 0;
      if (ctx.popularity_order.size() > 1) {
        const size_t rank = static_cast<size_t>(
            std::lower_bound(ctx.popularity_cdf.begin(),
                             ctx.popularity_cdf.end(), rng.Unit()) -
            ctx.popularity_cdf.begin());
        edition = ctx.popularity_order[std::min(
            rank, ctx.popularity_order.size() - 1)];
      }
      RunQuery(ctx, edition, shape, traced, log);
    }
  }
}

// --- Writers ---------------------------------------------------------------

struct WriterLog {
  std::vector<double> from_due_ms;  // commit latency, timed from due
  std::vector<double> call_ms;      // the Commit/Remove call alone
  std::vector<double> late_ms;      // how late the generator started it
  size_t errors = 0;
  std::string first_error;
  size_t live_snapshots_max = 0;
  std::vector<double> calibration_ms;  // probe only (see RunCommitProbe)
};

void Commit(CorpusService* corpus, const std::string& name,
            const Reference& ref, uint64_t seed, uint64_t k,
            Clock::time_point due, WriterLog* log) {
  // Even commits add the churn hierarchy, odd ones remove it again.
  std::vector<mhx::goddag::VirtualElement> payload;
  if (k % 2 == 0) payload = ChurnPayload(ref.words, seed, k);
  std::this_thread::sleep_until(due);
  const auto begin = Clock::now();
  auto version =
      k % 2 == 0
          ? corpus->CommitVirtualHierarchy(name, kChurnHierarchy,
                                           std::move(payload))
          : corpus->RemoveVirtualHierarchy(name, kChurnHierarchy);
  const auto end = Clock::now();
  if (!version.ok() && log->errors++ == 0) {
    log->first_error = version.status().ToString();
  }
  log->from_due_ms.push_back(MsBetween(due, end));
  log->call_ms.push_back(MsBetween(begin, end));
  log->late_ms.push_back(std::max(0.0, MsBetween(due, begin)));
  log->live_snapshots_max = std::max(
      log->live_snapshots_max, mhx::goddag::DocumentSnapshot::live_count());
}

// Open loop: commit k is due at start + k * period whether or not commit
// k - 1 has finished, so a slow commit delays the ones after it and that
// delay is counted.
void RunWriter(const LoopContext& ctx, uint64_t seed, WriterLog* log) {
  const auto period = std::chrono::duration<double, std::milli>(
      ctx.spec->writer_period_ms);
  for (uint64_t k = 0;; ++k) {
    const auto due =
        ctx.start + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(k));
    if (due >= ctx.deadline) break;
    Commit(ctx.corpus, (*ctx.names)[0], *ctx.ref, seed, k, due, log);
  }
}

// Back-to-back commits on the idle service (each due when it starts),
// with the calibration unit timed between every few commits so the probe
// is scaled by the machine speed of its own second, not the loop's.
void RunCommitProbe(CorpusService* corpus, const std::string& name,
                    const Reference& ref, uint64_t seed, WriterLog* log) {
  (void)corpus->Pin(name);  // resident first, so no commit pays a load
  const auto start = Clock::now();
  for (int k = 0; k < kProbeMaxCommits; ++k) {
    if (k >= kProbeMinCommits &&
        MsBetween(start, Clock::now()) > kProbeSeconds * 1000.0) {
      break;
    }
    if (k % 8 == 0) log->calibration_ms.push_back(CalibrationMs());
    Commit(corpus, name, ref, seed, static_cast<uint64_t>(k), Clock::now(),
           log);
  }
}

// --- Reporting helpers ------------------------------------------------------

// Sustained throughput of the closed loops: per client, the median rate
// over blocks of consecutive queries (a block's count over the time its
// queries took, so calibration pauses between rounds do not count),
// summed over clients. A block median rides out the box's short slow
// phases, which a whole-run average would fold in at whatever share they
// happened to take.
double BlockQps(const std::vector<ClientLog>& clients, size_t block) {
  double qps = 0.0;
  for (const ClientLog& log : clients) {
    std::vector<double> rates;
    double busy_ms = 0.0;
    for (size_t i = 0; i < log.samples.size(); ++i) {
      busy_ms += log.samples[i].end_ms - log.samples[i].begin_ms;
      // Full blocks only, unless the client never completed one.
      const bool last = i + 1 == log.samples.size();
      if ((i + 1) % block == 0 || (rates.empty() && last)) {
        if (busy_ms > 0) {
          rates.push_back(1000.0 * static_cast<double>(i % block + 1) /
                          busy_ms);
        }
        busy_ms = 0.0;
      }
    }
    qps += Median(std::move(rates));
  }
  return qps;
}

struct Counters {
  CorpusService::Stats stats;
  uint64_t index_rebuilds = 0;
  uint64_t sorts_skipped = 0;
  uint64_t parallel_tasks = 0;
  uint64_t steals = 0;
  uint64_t steps_indexed = 0;
  uint64_t steps_scanned = 0;
  uint64_t pushdowns = 0;
  uint64_t replans = 0;
};

Counters ReadCounters(const CorpusService& corpus,
                      const mhx::xquery::EngineCounters& engine) {
  Counters c;
  c.stats = corpus.stats();
  c.index_rebuilds = engine.index_rebuilds.value();
  c.sorts_skipped = engine.sorts_skipped.value();
  c.parallel_tasks = engine.parallel_tasks.value();
  c.steals = engine.steals.value();
  c.steps_indexed = engine.plan_steps_indexed.value();
  c.steps_scanned = engine.plan_steps_scanned.value();
  c.pushdowns = engine.plan_pushdowns.value();
  c.replans = corpus.plans()->plan_replans();
  return c;
}

double Delta(size_t after, size_t before) {
  return static_cast<double>(after - before);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error) {
  const Spec& spec = *FindSpec(config.workload);
  const std::vector<EditionConfig> configs = ConfigsFor(spec, config.seed);

  // Set-up: the median of several from-scratch set-ups, each in a fresh
  // service with a fresh spill directory; the last one serves.
  std::vector<double> setup_s, setup_calibration_ms;
  Service service;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    service = Service();
    setup_calibration_ms.push_back(CalibrationMs());
    const std::string spill_dir =
        config.work_dir + "/spill-" + std::to_string(rep);
    std::filesystem::remove_all(config.work_dir + "/spill-" +
                                std::to_string(rep - 1));
    const auto start = Clock::now();
    if (!SetUp(spec, configs, spill_dir, &service, error)) return false;
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  CorpusService& corpus = *service.corpus;

  Reference ref;
  if (!BuildReference(configs, &ref, error)) return false;
  std::shared_ptr<mhx::xquery::EngineCounters> engine_counters;
  {
    auto pin = corpus.Pin(service.names[0]);
    if (!pin.ok()) {
      *error = "Pin: " + pin.status().ToString();
      return false;
    }
    engine_counters = (*pin)->engine()->counters();
  }

  LoopContext ctx;
  ctx.spec = &spec;
  ctx.corpus = &corpus;
  ctx.names = &service.names;
  ctx.ref = &ref;
  ctx.trace = config.trace;
  if (spec.editions > 1) {
    ctx.popularity_order.resize(spec.editions);
    for (size_t i = 0; i < spec.editions; ++i) ctx.popularity_order[i] = i;
    Rng rng(DeriveSeed(config.seed, kPopularitySeed));
    rng.Shuffle(&ctx.popularity_order);
    double total = 0.0;
    for (size_t rank = 0; rank < spec.editions; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1),
                              spec.zipf_exponent);
      ctx.popularity_cdf.push_back(total);
    }
    for (double& c : ctx.popularity_cdf) c /= total;
  }

  // Warm-up: every shape once on each edition the cache can hold, so the
  // plan cache and lazily built state are in place before timing.
  ClientLog warm;
  ctx.start = Clock::now();
  for (size_t e = 0; e < std::min(spec.editions, spec.capacity); ++e) {
    for (int s = 0; s < kShapeCount; ++s) {
      RunQuery(ctx, e, static_cast<uint8_t>(s), false, &warm);
    }
  }

  // The measured loop.
  const Counters before = ReadCounters(corpus, *engine_counters);
  std::vector<ClientLog> clients(spec.clients);
  WriterLog writer;
  ctx.start = Clock::now();
  ctx.deadline = ctx.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < spec.clients; ++c) {
      threads.emplace_back(RunClient, std::cref(ctx),
                           DeriveSeed(config.seed, kClientSeeds + c),
                           &clients[c]);
    }
    if (spec.writer_period_ms > 0) {
      threads.emplace_back(RunWriter, std::cref(ctx), config.seed, &writer);
    }
    for (std::thread& t : threads) t.join();
  }
  const double loop_s = MsBetween(ctx.start, Clock::now()) / 1000.0;
  const Counters after = ReadCounters(corpus, *engine_counters);
  if (spec.writer_period_ms <= 0) {
    RunCommitProbe(&corpus, service.names[0], ref, config.seed, &writer);
  }

  // Verification and invariants.
  size_t queries = warm.samples.size(), mismatches = warm.mismatches,
         errors = warm.errors;
  std::string first_error = warm.first_error;
  std::vector<double> latency, shape_latency[kShapeCount];
  std::vector<double> calibration_ms;
  for (const ClientLog& log : clients) {
    calibration_ms.insert(calibration_ms.end(), log.calibration_ms.begin(),
                          log.calibration_ms.end());
    queries += log.samples.size();
    mismatches += log.mismatches;
    errors += log.errors;
    if (first_error.empty()) first_error = log.first_error;
    for (const Sample& s : log.samples) {
      if (!s.ok || s.traced) continue;
      latency.push_back(s.end_ms - s.begin_ms);
      shape_latency[s.shape].push_back(s.end_ms - s.begin_ms);
    }
  }
  if (first_error.empty()) first_error = writer.first_error;
  // Times scale to the reference machine speed (see CalibrationMs), each
  // phase — set-up, the loop, the commit probe — by its own calibrations.
  // A loop too short for its clients to calibrate falls back on set-up's.
  if (calibration_ms.empty()) calibration_ms = setup_calibration_ms;
  const double calibration = Median(calibration_ms);
  const double scale = kReferenceCalibrationMs / calibration;
  const double setup_scale =
      kReferenceCalibrationMs / Median(setup_calibration_ms);
  const double commit_scale =
      spec.writer_period_ms > 0
          ? scale
          : kReferenceCalibrationMs / Median(writer.calibration_ms);
  const CorpusService::Stats final_stats = corpus.stats();
  const size_t loop_builds = after.stats.builds - before.stats.builds;
  const size_t loop_parse_builds =
      loop_builds - (after.stats.mmap_loads - before.stats.mmap_loads);
  const size_t loop_rebuilds = after.index_rebuilds - before.index_rebuilds;
  const size_t loop_writes = after.stats.writes - before.stats.writes;
  std::vector<std::string> violations;
  if (mismatches > 0) violations.push_back("result mismatches");
  if (errors + writer.errors > 0) violations.push_back("failed operations");
  if (final_stats.load_fallbacks > 0) violations.push_back("load fallbacks");
  // Index builds stay flat per published version: only documents that came
  // back by parsing, or versions a writer published, may add one.
  if (loop_rebuilds > loop_parse_builds + loop_writes) {
    violations.push_back("index rebuilds grew with queries");
  }

  result->attempted = queries + writer.from_due_ms.size();
  result->failed = mismatches + errors + writer.errors;
  Report& report = result->report;
  std::ostringstream summary;
  summary << "workload=" << spec.name << " seed=" << config.seed
          << " trace=" << config.trace << " loop_s=" << loop_s
          << " queries=" << queries;
  for (int s = 0; s < kShapeCount; ++s) {
    summary << " " << kShapeNames[s] << "=" << shape_latency[s].size();
  }
  summary << " commits=" << writer.from_due_ms.size()
          << " loop_builds=" << loop_builds
          << " loop_mmap_loads="
          << after.stats.mmap_loads - before.stats.mmap_loads
          << " loop_index_rebuilds=" << loop_rebuilds
          << " calibration_ms=" << calibration
          << " calibrations=" << calibration_ms.size()
          << " raw_setup_s=" << Median(setup_s)
          << " raw_commit_p50_ms=" << Quantile(writer.from_due_ms, 0.50)
          << " raw_qps=" << BlockQps(clients, spec.block_queries)
          << " raw_query_p50_ms=" << Quantile(latency, 0.50)
          // Tails are printed, not gated: the host's steal time sets them
          // (see README.md, "Steadiness").
          << " query_p99_ms=" << scale * Quantile(latency, 0.99)
          << " commit_p90_ms="
          << commit_scale * Quantile(writer.from_due_ms, 0.90);

  if (!config.trace) {
    report.Add("setup_s", setup_scale * Median(setup_s), "s");
    report.Add("qps", BlockQps(clients, spec.block_queries) / scale, "1/s");
    report.Add("query_p50_ms", scale * Quantile(latency, 0.50), "ms");
    report.Add("query_p90_ms", scale * Quantile(latency, 0.90), "ms");
    for (int s = 0; s < kShapeCount; ++s) {
      report.Add(std::string(kShapeNames[s]) + "_p50_ms",
                 scale * Median(shape_latency[s]), "ms");
    }
    report.Add("commit_p50_ms",
               commit_scale * Quantile(writer.from_due_ms, 0.50), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("arena_bytes_per_char", ref.arena_bytes / ref.text_bytes,
               "ratio");
  } else {
    // Per-layer split, in raw (unscaled) times. Loop counters cover the
    // whole traced run (traced and untraced rounds alike); span-derived
    // figures come from the traced rounds only.
    report.Add("bench.calibration_ms", calibration, "ms");
    if (!ReportSetupLayers(configs, config.work_dir, &report, error)) {
      return false;
    }
    {
      auto pin = corpus.Pin(service.names[0]);
      if (!pin.ok()) {
        *error = "Pin: " + pin.status().ToString();
        return false;
      }
      std::string layer_error;
      if (!ReportQueryLayers(*(*pin)->PinSnapshot(), &report, &layer_error)) {
        violations.push_back(layer_error);
      }
    }
    const double lookups =
        Delta(after.stats.plan_hits + after.stats.plan_misses,
              before.stats.plan_hits + before.stats.plan_misses);
    report.Add("xquery.plan_hit_rate",
               lookups > 0 ? Delta(after.stats.plan_hits,
                                   before.stats.plan_hits) / lookups
                           : 0.0,
               "ratio");
    report.Add("xquery.plan_replans", Delta(after.replans, before.replans),
               "count");
    report.Add("xquery.steps_indexed",
               Delta(after.steps_indexed, before.steps_indexed), "count");
    report.Add("xquery.steps_scanned",
               Delta(after.steps_scanned, before.steps_scanned), "count");
    report.Add("xquery.pushdowns", Delta(after.pushdowns, before.pushdowns),
               "count");

    std::vector<TracedSample> traced;
    size_t heavy_waiting_max = 0, live_max = writer.live_snapshots_max;
    std::vector<double> traced_lat[kShapeCount], untraced_lat[kShapeCount];
    for (const ClientLog& log : clients) {
      traced.insert(traced.end(), log.traced.begin(), log.traced.end());
      heavy_waiting_max = std::max(heavy_waiting_max, log.heavy_waiting_max);
      live_max = std::max(live_max, log.live_snapshots_max);
      for (const Sample& s : log.samples) {
        if (!s.ok) continue;
        (s.traced ? traced_lat : untraced_lat)[s.shape].push_back(
            s.end_ms - s.begin_ms);
      }
    }
    const int engine_stages[] = {kPlanLookupStage, kIndexStage,
                                 kEvaluateStage, kSerializeStage};
    double min_coverage = 1.0;
    double busy = 0.0, capacity = 0.0;
    double corpus_stage_ms[kStageCount] = {};
    for (int s = 0; s < kShapeCount; ++s) {
      std::vector<double> stage_ms[kStageCount];
      double staged = 0.0, wall = 0.0;
      for (const TracedSample& t : traced) {
        if (t.shape != s) continue;
        for (int st = 0; st < kStageCount; ++st) {
          stage_ms[st].push_back(t.stage_ms[st]);
          staged += t.stage_ms[st];
        }
        wall += t.wall_ms;
      }
      for (int st : engine_stages) {
        report.Add("engine." + std::string(kStageNames[st]) + "_ms." +
                       kShapeNames[s],
                   Median(stage_ms[st]), "ms");
      }
      const double coverage = wall > 0 ? staged / wall : 0.0;
      min_coverage = std::min(min_coverage, coverage);
      summary << " coverage_" << kShapeNames[s] << "=" << coverage;
    }
    for (const TracedSample& t : traced) {
      busy += t.slot_busy_ms;
      capacity += t.slot_capacity_ms;
      for (int st = 0; st < kStageCount; ++st) {
        corpus_stage_ms[st] += t.stage_ms[st];
      }
    }
    if (min_coverage < 0.9) violations.push_back("stage coverage below 90%");
    report.Add("engine.stage_coverage", min_coverage, "ratio");
    report.Add("engine.sorts_skipped",
               Delta(after.sorts_skipped, before.sorts_skipped), "count");
    report.Add("engine.index_rebuilds", static_cast<double>(loop_rebuilds),
               "count");
    for (int s = 0; s < kShapeCount; ++s) {
      double bytes = 0.0;
      for (const auto& expected : ref.results) bytes += expected[s].size();
      report.Add(std::string("xquery.result_bytes.") + kShapeNames[s],
                 bytes / static_cast<double>(ref.results.size()), "bytes");
    }
    report.Add("base.parallel_tasks",
               Delta(after.parallel_tasks, before.parallel_tasks), "count");
    report.Add("base.steals", Delta(after.steals, before.steals), "count");
    report.Add("engine.fanout_busy_ratio",
               capacity > 0 ? busy / capacity : 0.0, "ratio");

    const double traced_queries =
        std::max<double>(1.0, static_cast<double>(traced.size()));
    report.Add("corpus.doc_build_ms",
               corpus_stage_ms[kDocBuildStage] / traced_queries, "ms");
    report.Add("corpus.admission_wait_ms",
               corpus_stage_ms[kAdmissionStage] / traced_queries, "ms");
    report.Add("corpus.parse_ms",
               corpus_stage_ms[kParseStage] / traced_queries, "ms");
    size_t loop_queries = 0;
    for (const ClientLog& log : clients) loop_queries += log.samples.size();
    report.Add("corpus.residency_hit_rate",
               loop_queries > 0
                   ? 1.0 - static_cast<double>(loop_builds) / loop_queries
                   : 0.0,
               "ratio");
    report.Add("corpus.builds", static_cast<double>(loop_builds), "count");
    report.Add("corpus.parse_builds", static_cast<double>(loop_parse_builds),
               "count");
    report.Add("corpus.mmap_loads",
               Delta(after.stats.mmap_loads, before.stats.mmap_loads),
               "count");
    report.Add("corpus.evictions",
               Delta(after.stats.evictions, before.stats.evictions), "count");
    report.Add("corpus.load_fallbacks",
               static_cast<double>(final_stats.load_fallbacks), "count");
    report.Add("corpus.heavy_rejections",
               static_cast<double>(final_stats.heavy_rejections), "count");
    report.Add("corpus.heavy_waiting_max",
               static_cast<double>(heavy_waiting_max), "count");

    report.Add("document.commit_ms", Median(writer.call_ms), "ms");
    report.Add("corpus.writes", static_cast<double>(loop_writes), "count");
    report.Add("corpus.write_rejections",
               static_cast<double>(final_stats.write_rejections), "count");
    report.Add("corpus.snapshots_persisted",
               Delta(after.stats.snapshots_persisted,
                     before.stats.snapshots_persisted),
               "count");
    report.Add("goddag.live_snapshots_max", static_cast<double>(live_max),
               "count");
    report.Add("bench.writer_late_p99_ms", Quantile(writer.late_ms, 0.99),
               "ms");

    // Tracing overhead: mix-weighted per-shape medians of traced against
    // untraced rounds of the same loop.
    double traced_ms = 0.0, untraced_ms = 0.0;
    for (int s = 0; s < kShapeCount; ++s) {
      traced_ms += spec.mix[s] * Median(traced_lat[s]);
      untraced_ms += spec.mix[s] * Median(untraced_lat[s]);
    }
    report.Add("obs.trace_overhead_pct",
               untraced_ms > 0 ? 100.0 * (traced_ms / untraced_ms - 1.0)
                               : 0.0,
               "%");
  }

  result->correct = violations.empty();
  for (const std::string& v : violations) summary << " VIOLATION: " << v;
  if (!first_error.empty()) summary << " first_error: " << first_error;
  result->summary = summary.str();
  return true;
}

}  // namespace perfbench
