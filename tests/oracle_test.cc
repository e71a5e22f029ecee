// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The engine against an independent oracle: seeded random path queries
// over the paper document and over generated editions, each evaluated by
// the reference evaluator (reference_eval.h) and by the engine in every
// plan mode at 1 and 4 threads. Every result item must serialise to the
// oracle's bytes, in the oracle's order. MHX_STRESS_ITERS=N runs N times
// as many seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "document.h"
#include "reference_eval.h"
#include "workload/generator.h"
#include "workload/paper_data.h"

namespace mhx {
namespace {

using reference::And;
using reference::Exists;
using reference::Not;
using reference::Or;
using reference::Path;
using reference::Position;
using reference::Predicate;
using reference::ReferenceEvaluator;
using reference::S;
using reference::Step;
using xpath::Axis;
using xquery::PlanMode;

int StressIters() {
  const char* value = std::getenv("MHX_STRESS_ITERS");
  const int parsed = value != nullptr ? std::atoi(value) : 0;
  return parsed > 0 ? parsed : 1;
}

// splitmix64: the same sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Percent(int p) { return Below(100) < static_cast<size_t>(p); }
  template <typename T, size_t N>
  T Pick(const T (&options)[N]) {
    return options[Below(N)];
  }

 private:
  uint64_t state_;
};

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,           Axis::kParent,
    Axis::kDescendant,     Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowingSibling, Axis::kPrecedingSibling,
    Axis::kFollowing,      Axis::kPreceding,        Axis::kXAncestor,
    Axis::kXDescendant,    Axis::kOverlapping,      Axis::kXFollowing,
    Axis::kXPreceding};
// The axes a step may take from a leaf context with a node test.
constexpr Axis kLeafContextAxes[] = {
    Axis::kAncestor,    Axis::kAncestorOrSelf, Axis::kXAncestor,
    Axis::kXDescendant, Axis::kOverlapping,    Axis::kFollowing,
    Axis::kXFollowing,  Axis::kPreceding,      Axis::kXPreceding};
constexpr Axis kDownwardAxes[] = {Axis::kChild, Axis::kDescendant,
                                  Axis::kDescendantOrSelf, Axis::kXDescendant};
// The axes leaf() supports, from either context kind.
constexpr Axis kLeafTestAxes[] = {Axis::kSelf, Axis::kChild,
                                  Axis::kDescendant,
                                  Axis::kDescendantOrSelf,
                                  Axis::kXDescendant};

// Random well-formed paths: every step is valid for the context kind it
// receives (a leaf after a leaf() step, a node otherwise), so the engine
// and the oracle must both answer rather than error.
class QueryGenerator {
 public:
  QueryGenerator(uint64_t seed, std::vector<std::string> names)
      : rng_(seed), names_(std::move(names)) {}

  // From the GODDAG root only the downward axes reach anything, so the
  // first step mostly takes one of them.
  Path AbsolutePath() {
    Path path = GenPath(/*from_leaf=*/false, 1 + rng_.Below(3), 0);
    if (path.front().test != Step::Test::kLeaf && rng_.Percent(85)) {
      path.front().axis = rng_.Pick(kDownwardAxes);
    }
    return path;
  }

 private:
  Path GenPath(bool from_leaf, size_t steps, int depth) {
    Path path;
    for (size_t i = 0; i < steps; ++i) {
      path.push_back(GenStep(from_leaf, depth));
      from_leaf = path.back().test == Step::Test::kLeaf;
    }
    return path;
  }

  Step GenStep(bool from_leaf, int depth) {
    Step step;
    if (rng_.Percent(from_leaf ? 25 : 15)) {
      step = S(rng_.Pick(kLeafTestAxes), "leaf()");
    } else {
      const Axis axis =
          from_leaf ? rng_.Pick(kLeafContextAxes) : rng_.Pick(kAllAxes);
      const size_t kind = rng_.Below(100);
      step = S(axis, kind < 60   ? names_[rng_.Below(names_.size())]
                     : kind < 85 ? "*"
                                 : "node()");
    }
    // Deeper predicates get rarer, which keeps the nesting bounded.
    const bool result_is_leaf = step.test == Step::Test::kLeaf;
    const int chance = depth == 0 ? 30 : depth == 1 ? 10 : 0;
    while (rng_.Percent(chance) && step.predicates.size() < 2) {
      if (rng_.Percent(30)) {
        step.predicates.push_back(Position(1 + rng_.Below(3)));
      } else {
        step.predicates.push_back(GenBoolean(result_is_leaf, depth + 1));
      }
    }
    return step;
  }

  Predicate GenBoolean(bool from_leaf, int depth) {
    const size_t kind = rng_.Below(100);
    auto exists = [&] {
      return Exists(GenPath(from_leaf, rng_.Percent(75) ? 1 : 2, depth));
    };
    if (kind < 55) return exists();
    if (kind < 70) return Not(exists());
    if (kind < 85) return And(exists(), exists());
    return Or(exists(), exists());
  }

  Rng rng_;
  std::vector<std::string> names_;
};

struct Corpus {
  std::string label;
  std::unique_ptr<MultihierarchicalDocument> doc;
  std::shared_ptr<const goddag::DocumentSnapshot> snapshot;
  std::unique_ptr<ReferenceEvaluator> oracle;
  std::vector<std::string> names;  // distinct element names, sorted
};

std::unique_ptr<Corpus> MakeCorpus(std::string label,
                                   StatusOr<MultihierarchicalDocument> doc) {
  EXPECT_TRUE(doc.ok()) << label << ": " << doc.status();
  if (!doc.ok()) return nullptr;
  auto corpus = std::make_unique<Corpus>();
  corpus->label = std::move(label);
  corpus->doc =
      std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
  corpus->snapshot = corpus->doc->PinSnapshot();
  const goddag::KyGoddag& kg = corpus->snapshot->goddag();
  corpus->oracle = std::make_unique<ReferenceEvaluator>(kg);
  std::set<std::string> names;
  for (goddag::NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind == goddag::GNodeKind::kElement) {
      names.insert(kg.node(id).name);
    }
  }
  corpus->names.assign(names.begin(), names.end());
  return corpus;
}

std::string Describe(const workload::EditionConfig& c) {
  return "edition{seed=" + std::to_string(c.seed) +
         " word_count=" + std::to_string(c.word_count) +
         " chars_per_line=" + std::to_string(c.chars_per_line) +
         " words_per_sentence=" + std::to_string(c.words_per_sentence) +
         " damage_coverage=" + std::to_string(c.damage_coverage) +
         " restoration_coverage=" + std::to_string(c.restoration_coverage) +
         "}";
}

// The paper document plus generated editions spanning small and large
// word/line ratios and sparse to dense overlap.
std::vector<std::unique_ptr<Corpus>> BuildCorpora() {
  std::vector<std::unique_ptr<Corpus>> out;
  out.push_back(MakeCorpus("paper document", workload::BuildPaperDocument()));
  struct Shape {
    uint64_t seed;
    size_t words, chars_per_line, words_per_sentence;
    double damage, restoration;
  };
  const Shape kShapes[] = {
      {3, 24, 11, 5, 0.20, 0.20},  {5, 40, 19, 8, 0.10, 0.30},
      {7, 60, 31, 12, 0.35, 0.05}, {11, 16, 7, 3, 0.50, 0.40},
      {13, 80, 40, 8, 0.05, 0.15},
  };
  for (const Shape& shape : kShapes) {
    workload::EditionConfig config;
    config.seed = shape.seed;
    config.word_count = shape.words;
    config.chars_per_line = shape.chars_per_line;
    config.words_per_sentence = shape.words_per_sentence;
    config.damage_coverage = shape.damage;
    config.restoration_coverage = shape.restoration;
    out.push_back(
        MakeCorpus(Describe(config), workload::BuildEditionDocument(config)));
  }
  return out;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += "  [" + item + "]\n";
  return out;
}

// Checks one query against the oracle in every plan mode at 1 and 4
// threads; returns false (after reporting) on the first disagreement. On
// success `*items` (when given) receives the answer's length.
bool AgreesWithOracle(const Corpus& corpus, const Path& path,
                      const std::string& context, size_t* items = nullptr) {
  const std::string query = reference::Render(path);
  auto expected = corpus.oracle->Evaluate(path);
  if (!expected.ok()) {
    ADD_FAILURE() << context << "\non " << corpus.label << "\nquery: " << query
                  << "\nthe oracle rejected a generated query: "
                  << expected.status();
    return false;
  }
  const std::vector<std::string> want = corpus.oracle->SerializeAll(*expected);
  for (PlanMode mode :
       {PlanMode::kAuto, PlanMode::kForceNaive, PlanMode::kForceIndexed}) {
    for (unsigned threads : {1u, 4u}) {
      QueryOptions options;
      options.plan_mode = mode;
      options.threads = threads;
      auto got = corpus.doc->engine()->EvaluateKeepingTemporaries(query,
                                                                  options);
      const std::string where = context + "\non " + corpus.label +
                                "\nquery: " + query + "\nplan mode " +
                                std::string(xquery::PlanModeName(mode)) +
                                " threads " + std::to_string(threads);
      if (!got.ok()) {
        ADD_FAILURE() << where << "\nengine error: " << got.status();
        return false;
      }
      if (got->items != want) {
        ADD_FAILURE() << where << "\nengine (" << got->items.size()
                      << " items):\n"
                      << Join(got->items) << "oracle (" << want.size()
                      << " items):\n"
                      << Join(want);
        return false;
      }
    }
  }
  if (items != nullptr) *items = want.size();
  return true;
}

TEST(OracleTest, RandomPathsMatchTheReferenceEvaluator) {
  const std::vector<std::unique_ptr<Corpus>> corpora = BuildCorpora();
  for (const auto& corpus : corpora) ASSERT_NE(corpus, nullptr);
  const uint64_t seeds = 400 * static_cast<uint64_t>(StressIters());
  int failures = 0;
  size_t nonempty = 0;
  for (uint64_t seed = 1; seed <= seeds && failures < 5; ++seed) {
    const Corpus& corpus = *corpora[seed % corpora.size()];
    QueryGenerator generator(seed, corpus.names);
    size_t items = 0;
    if (!AgreesWithOracle(corpus, generator.AbsolutePath(),
                          "seed " + std::to_string(seed), &items)) {
      ++failures;
    } else if (items > 0) {
      ++nonempty;
    }
  }
  // Guard against a generator that only produces vacuous queries.
  EXPECT_GT(nonempty, seeds / 4);
}

// Hand-picked shapes the random walk reaches only by luck: the paper's
// overlap witnesses, leaf round trips, and duplicates across contexts.
TEST(OracleTest, PinnedShapesMatchTheReferenceEvaluator) {
  const std::vector<std::unique_ptr<Corpus>> corpora = BuildCorpora();
  const Path kPaths[] = {
      {S(Axis::kDescendant, "w", {Exists({S(Axis::kOverlapping, "line")})})},
      {S(Axis::kDescendant, "leaf()"), S(Axis::kAncestor, "*")},
      {S(Axis::kDescendant, "leaf()"), S(Axis::kXAncestor, "node()")},
      {S(Axis::kDescendant, "w"), S(Axis::kAncestorOrSelf, "node()")},
      {S(Axis::kDescendant, "dmg"), S(Axis::kXDescendant, "w"),
       S(Axis::kXAncestor, "line")},
      {S(Axis::kDescendant, "w", {Position(2)}),
       S(Axis::kFollowing, "*", {Position(1)})},
      {S(Axis::kDescendant, "line"), S(Axis::kChild, "leaf()")},
      {S(Axis::kDescendant, "s"),
       S(Axis::kDescendant, "w",
         {And(Exists({S(Axis::kXDescendant, "leaf()")}),
              Not(Exists({S(Axis::kXAncestor, "res")})))})},
      {S(Axis::kDescendant, "leaf()", {Exists({S(Axis::kXAncestor, "dmg")})}),
       S(Axis::kPreceding, "w", {Position(1)})},
      {S(Axis::kChild, "*"), S(Axis::kFollowingSibling, "node()")},
  };
  for (const auto& corpus : corpora) {
    ASSERT_NE(corpus, nullptr);
    for (const Path& path : kPaths) {
      AgreesWithOracle(*corpus, path, "pinned shape");
    }
  }
}

// The oracle's own footing: on the paper document it reproduces facts
// stated in the paper, independently of the engine.
TEST(OracleTest, ReferenceEvaluatorReproducesPaperFacts) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto snapshot = doc->PinSnapshot();
  const ReferenceEvaluator oracle(snapshot->goddag());
  // "unawendendne" crosses the first line break, "eac" the second.
  auto crossing = oracle.Evaluate(
      {S(Axis::kDescendant, "w", {Exists({S(Axis::kOverlapping, "line")})})});
  ASSERT_TRUE(crossing.ok()) << crossing.status();
  EXPECT_EQ(oracle.SerializeAll(*crossing),
            (std::vector<std::string>{"<w>unawendendne</w>", "<w>eac</w>"}));
  // The word overlaps exactly the two lines it straddles.
  auto lines = oracle.Evaluate(
      {S(Axis::kDescendant, "w", {Position(3)}),
       S(Axis::kOverlapping, "line")});
  ASSERT_TRUE(lines.ok()) << lines.status();
  EXPECT_EQ(lines->size(), 2u);
  // Leaves tile the text.
  size_t covered = 0;
  for (const TextRange& leaf : oracle.leaves()) covered += leaf.length();
  EXPECT_EQ(covered, snapshot->goddag().base_text().size());
}

// Steps with no meaning for the context they reach fail in both.
TEST(OracleTest, InvalidLeafStepsFailInBoth) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto snapshot = doc->PinSnapshot();
  const ReferenceEvaluator oracle(snapshot->goddag());
  const Path kInvalid[] = {
      {S(Axis::kDescendant, "leaf()"), S(Axis::kChild, "w")},
      {S(Axis::kDescendant, "leaf()"), S(Axis::kFollowingSibling, "*")},
      {S(Axis::kDescendant, "w"), S(Axis::kAncestor, "leaf()")},
      {S(Axis::kDescendant, "leaf()"), S(Axis::kParent, "leaf()")},
  };
  for (const Path& path : kInvalid) {
    const std::string query = reference::Render(path);
    EXPECT_FALSE(oracle.Evaluate(path).ok()) << query;
    EXPECT_FALSE(doc->Query(query).ok()) << query;
  }
}

}  // namespace
}  // namespace mhx
