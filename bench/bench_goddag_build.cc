// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiments E1/E2/E10 (DESIGN.md): KyGODDAG construction cost vs. edition
// size and number of hierarchies, plus the cost of virtual-hierarchy
// add/remove cycles (what every analyze-string() call pays).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "document.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xml/parser.h"

namespace {

using mhx::goddag::KyGoddag;

void BM_BuildPaperDocument(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = mhx::workload::BuildPaperDocument();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildPaperDocument);

void BM_BuildEdition_BySize(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition edition = mhx::workload::GenerateEdition(config);
  size_t bytes = edition.base_text.size();
  for (auto _ : state) {
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes *
                          4);  // 4 encodings parsed per build
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildEdition_BySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity();

void BM_BuildEdition_ByHierarchyCount(benchmark::State& state) {
  // 1..4 hierarchies over the same base text.
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = 800;
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  std::vector<std::pair<std::string, std::string>> all = {
      {"physical", e.physical_xml},
      {"structural", e.structural_xml},
      {"restoration", e.restoration_xml},
      {"condition", e.condition_xml},
  };
  int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mhx::MultihierarchicalDocument::Builder builder;
    builder.SetBaseText(e.base_text);
    for (int i = 0; i < count; ++i) {
      builder.AddHierarchy(all[i].first, all[i].second);
    }
    auto doc = builder.Build();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildEdition_ByHierarchyCount)->DenseRange(1, 4);

void BM_VirtualHierarchyCycle(benchmark::State& state) {
  // Add + remove a virtual hierarchy (the analyze-string() substrate) on an
  // edition of the given size. arg1 toggles incremental leaf maintenance
  // (the E10 ablation: patched splice vs. full partition rebuild).
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  // A private clone of the published goddag: the benchmark mutates it in
  // place, as a writer does before publishing.
  std::unique_ptr<KyGoddag> kg = doc->PinSnapshot()->goddag().Clone();
  kg->set_incremental_leaves(state.range(1) != 0);
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(n / 4, n / 2), {}},
         mhx::goddag::VirtualElement{"m", mhx::TextRange(n / 3, n / 2 - 1),
                                     {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());  // force rebuild
    if (!kg->RemoveVirtualHierarchy(*h).ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VirtualHierarchyCycle)
    ->ArgsProduct({{100, 400, 1600, 6400}, {0, 1}})
    ->Complexity();

void BM_XmlParseOnly(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  for (auto _ : state) {
    auto doc = mhx::xml::Parse(e.structural_xml);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          e.structural_xml.size());
}
BENCHMARK(BM_XmlParseOnly)->Arg(400)->Arg(6400);

void BM_LeafPartitionRebuild(benchmark::State& state) {
  // Isolated cost of a full lazy leaf rebuild after a structural change
  // (incremental maintenance disabled; with it on, the change is a splice —
  // see BM_VirtualHierarchyCycle's ablation). Each iteration performs one
  // add + rebuild + remove + rebuild cycle, all timed.
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  // A private clone of the published goddag: the benchmark mutates it in
  // place, as a writer does before publishing.
  std::unique_ptr<KyGoddag> kg = doc->PinSnapshot()->goddag().Clone();
  kg->set_incremental_leaves(false);
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(1, n - 1), {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
    (void)kg->RemoveVirtualHierarchy(*h);
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeafPartitionRebuild)->Arg(400)->Arg(1600)->Arg(6400)->Complexity();

// --- E10 follow-up: OverlayView leaf enumeration under overlays ----------

// A fixed 6400-word edition plus one overlay carrying `boundaries` fresh
// cuts (arg 0): what an analyze-string() call with many matches registers
// on the evaluation's view before a leaf() step.
struct OverlayFixture {
  std::unique_ptr<mhx::MultihierarchicalDocument> doc;
  std::shared_ptr<mhx::goddag::OverlayIdAllocator> ids;
  std::shared_ptr<const mhx::goddag::GoddagOverlay> overlay;
  // The range of one word in the middle of the text, overlay cuts inside.
  mhx::TextRange word;
};

OverlayFixture* MakeOverlayFixture(size_t boundaries) {
  static auto* cache = new std::map<size_t, OverlayFixture*>();
  auto it = cache->find(boundaries);
  if (it != cache->end()) return it->second;
  auto* fx = new OverlayFixture();
  mhx::workload::EditionConfig config;
  config.seed = 7;
  config.word_count = 6400;
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  fx->doc = std::make_unique<mhx::MultihierarchicalDocument>(
      std::move(doc).value());
  const mhx::goddag::KyGoddag& goddag = fx->doc->goddag();
  goddag.leaves();  // materialise, as the engine does
  fx->ids = std::make_shared<mhx::goddag::OverlayIdAllocator>();
  // boundaries/2 disjoint elements, each contributing two interior cuts at
  // odd offsets (word cells are multi-character, so odd positions split).
  const size_t n = fx->doc->base_text().size();
  std::vector<mhx::goddag::VirtualElement> elements;
  const size_t count = boundaries / 2;
  const size_t stride = (n - 8) / (count + 1);
  if (stride < 4) std::abort();
  for (size_t i = 0; i < count; ++i) {
    const size_t begin = (1 + (i + 1) * stride) | 1;
    elements.push_back(
        mhx::goddag::VirtualElement{"m", mhx::TextRange(begin, begin + 2),
                                    {}});
  }
  // The middle <w>, plus one element splitting it: the word analyze-string
  // just re-partitioned.
  std::vector<mhx::TextRange> words;
  for (mhx::goddag::NodeId id = 0; id < goddag.node_table_size(); ++id) {
    const mhx::goddag::GNode& node = goddag.node(id);
    if (node.kind == mhx::goddag::GNodeKind::kElement && node.name == "w") {
      words.push_back(node.range);
    }
  }
  if (words.empty()) std::abort();
  std::sort(words.begin(), words.end());
  fx->word = words[words.size() / 2];
  if (fx->word.length() < 3) std::abort();
  elements.push_back(mhx::goddag::VirtualElement{
      "a", mhx::TextRange(fx->word.begin + 1, fx->word.begin + 2), {}});
  auto overlay = mhx::goddag::GoddagOverlay::Create(
      &goddag, fx->ids, "m", std::move(elements));
  if (!overlay.ok()) std::abort();
  fx->overlay = *overlay;
  (*cache)[boundaries] = fx;
  return fx;
}

// One leaf() step over one word, in a fresh view holding an N-boundary
// overlay — the shape of every analyze-string() loop binding. The cost is
// the drain of the view's cuts plus a binary search and the word's cells,
// never a pass over the 6400-word partition.
void BM_OverlayLeavesIn(benchmark::State& state) {
  OverlayFixture* fx = MakeOverlayFixture(state.range(0));
  std::vector<mhx::goddag::Leaf> cells;
  for (auto _ : state) {
    mhx::goddag::OverlayView view(&fx->doc->goddag());
    view.AddOverlay(fx->overlay);
    cells.clear();
    view.AppendLeavesIn(fx->word, &cells);
    benchmark::DoNotOptimize(cells.data());
  }
  state.counters["leaf_cells"] = static_cast<double>(cells.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OverlayLeavesIn)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
