// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "document.h"
#include "goddag/overlay.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xpath/axes.h"

namespace mhx::xpath {
namespace {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::KyGoddag;
using goddag::NodeId;
using goddag::OverlayView;

constexpr Axis kExtendedAxes[] = {Axis::kXAncestor, Axis::kXDescendant,
                                  Axis::kOverlapping, Axis::kXFollowing,
                                  Axis::kXPreceding};

NodeId FindElement(const KyGoddag& kg, goddag::HierarchyId h,
                   const std::string& name, const std::string& text) {
  for (NodeId id : kg.hierarchy(h).nodes) {
    if (kg.node(id).name == name && kg.NodeString(id) == text) return id;
  }
  ADD_FAILURE() << "no <" << name << "> with text '" << text << "'";
  return goddag::kInvalidNode;
}

std::vector<std::string> Names(const KyGoddag& kg,
                               const std::vector<NodeId>& ids) {
  std::vector<std::string> out;
  for (NodeId id : ids) out.push_back(kg.node(id).name);
  return out;
}

class PaperAxesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = workload::BuildPaperDocument();
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
    snapshot_ = doc_->PinSnapshot();
  }

  std::unique_ptr<MultihierarchicalDocument> doc_;
  std::shared_ptr<const goddag::DocumentSnapshot> snapshot_;
};

TEST_F(PaperAxesTest, WordCrossingLinesOverlapsBoth) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto lines = axes.Evaluate(word, Axis::kOverlapping, NodeTest::Name("line"));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(kg.NodeString(lines[0]), "thaet is unawen");
  EXPECT_EQ(kg.NodeString(lines[1]), "dendne sceaft and ea");
  // A word wholly inside one line overlaps none (the line contains it).
  NodeId wyrd = FindElement(kg, 1, "w", "wyrd");
  EXPECT_TRUE(
      axes.Evaluate(wyrd, Axis::kOverlapping, NodeTest::Name("line")).empty());
}

TEST_F(PaperAxesTest, XAncestorSeesAcrossHierarchies) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  // "eac" [33,36) sits inside dmg [30,38), line-crossing damage.
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto ancestors = axes.Evaluate(eac, Axis::kXAncestor, NodeTest::Any());
  std::vector<std::string> names = Names(kg, ancestors);
  // Own chain: text, s; physical: sheet, page; condition: cond, dmg;
  // restoration: rest.
  for (const char* expected : {"text", "s", "sheet", "page", "cond", "dmg",
                               "rest"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing xancestor " << expected;
  }
  // "eac" crosses the line boundary at 35, so no line *contains* it (the
  // lines show up on overlapping::, not xancestor::), and the word itself is
  // never its own xancestor.
  EXPECT_EQ(std::find(names.begin(), names.end(), "line"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "w"), names.end());
}

TEST_F(PaperAxesTest, XDescendantFindsDamageInsideWord) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto dmg = axes.Evaluate(word, Axis::kXDescendant, NodeTest::Name("dmg"));
  ASSERT_EQ(dmg.size(), 1u);
  EXPECT_EQ(kg.NodeString(dmg[0]), "nawe");
  // "sceaft" contains no damage.
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");
  EXPECT_TRUE(
      axes.Evaluate(sceaft, Axis::kXDescendant, NodeTest::Name("dmg")).empty());
}

TEST_F(PaperAxesTest, OrderingAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");  // [22,28)
  auto following = axes.Evaluate(sceaft, Axis::kXFollowing,
                                 NodeTest::Name("w"));
  EXPECT_EQ(Names(kg, following).size(), 5u);  // and eac swa some wyrd
  auto preceding = axes.Evaluate(sceaft, Axis::kXPreceding,
                                 NodeTest::Name("line"));
  ASSERT_EQ(preceding.size(), 1u);  // only line 1 [0,15) ends before 22
  EXPECT_EQ(kg.NodeString(preceding[0]), "thaet is unawen");
}

TEST_F(PaperAxesTest, StandardAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  const NodeTest any = NodeTest::Any();
  NodeId root = kg.root();
  auto all = axes.Evaluate(root, Axis::kDescendant, any);
  EXPECT_EQ(all.size(), kg.element_count());
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto parent = axes.Evaluate(eac, Axis::kParent, any);
  ASSERT_EQ(parent.size(), 1u);
  EXPECT_EQ(kg.node(parent[0]).name, "s");
  auto ancestors = axes.Evaluate(eac, Axis::kAncestor, any);
  // s, text, GODDAG root — never crosses into other hierarchies.
  EXPECT_EQ(ancestors.size(), 3u);
  auto siblings = axes.Evaluate(eac, Axis::kFollowingSibling, any);
  EXPECT_EQ(Names(kg, siblings),
            (std::vector<std::string>{"w", "w", "w"}));  // swa some wyrd
  auto preceding_siblings = axes.Evaluate(eac, Axis::kPrecedingSibling, any);
  EXPECT_EQ(preceding_siblings.size(), 1u);  // and
  auto self = axes.Evaluate(eac, Axis::kSelf, any);
  EXPECT_EQ(self, std::vector<NodeId>{eac});
  // Standard following stays within the hierarchy.
  auto following = axes.Evaluate(eac, Axis::kFollowing, any);
  for (NodeId id : following) {
    EXPECT_EQ(kg.node(id).hierarchy, kg.node(eac).hierarchy);
  }
}

// The literal Definition-1 answer, written independently of the evaluator:
// every element of the base table and of the view's overlays (`exclude`
// aside) whose range stands in `axis` relation to `range` and that passes
// `test`, in document order (range, then id).
std::vector<NodeId> DefinitionOne(const OverlayView& view,
                                  const TextRange& range, NodeId exclude,
                                  Axis axis, const NodeTest& test) {
  std::vector<NodeId> out;
  auto consider = [&](NodeId id, const GNode& node) {
    if (id != exclude && node.kind == GNodeKind::kElement &&
        test.Matches(node) && ExtendedAxisMatches(axis, range, node.range)) {
      out.push_back(id);
    }
  };
  const KyGoddag& kg = view.base();
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    consider(id, kg.node(id));
  }
  for (const auto& overlay : view.overlays()) {
    for (NodeId id = overlay->elements_begin(); id < overlay->id_end(); ++id) {
      consider(id, overlay->node(id));
    }
  }
  std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) {
    const TextRange& ra = view.node(a).range;
    const TextRange& rb = view.node(b).range;
    return ra != rb ? ra < rb : a < b;
  });
  return out;
}

std::vector<NodeId> DefinitionOne(const OverlayView& view, NodeId context,
                                  Axis axis, const NodeTest& test) {
  return DefinitionOne(view, view.node(context).range, context, axis, test);
}

// Every element context the view can name: the base table's, then the
// overlays'.
std::vector<NodeId> ElementContexts(const OverlayView& view) {
  std::vector<NodeId> out;
  const KyGoddag& kg = view.base();
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind == GNodeKind::kElement) out.push_back(id);
  }
  for (const auto& overlay : view.overlays()) {
    for (NodeId id = overlay->elements_begin(); id < overlay->id_end(); ++id) {
      out.push_back(id);
    }
  }
  return out;
}

void ExpectAgreeInView(const AxisEvaluator& axes, const OverlayView& view) {
  const NodeTest tests[] = {NodeTest::Any(), NodeTest::Name("w")};
  for (NodeId id : ElementContexts(view)) {
    for (Axis axis : kExtendedAxes) {
      for (const NodeTest& test : tests) {
        const std::vector<NodeId> expected =
            DefinitionOne(view, id, axis, test);
        const auto where = [&] {
          return "axis " + std::string(AxisName(axis)) + " test '" +
                 test.name() + "' context " + std::to_string(id) + " '" +
                 view.node(id).name + "'";
        };
        EXPECT_EQ(axes.Evaluate(view, id, axis, test), expected) << where();
        for (bool pushdown : {false, true}) {
          EXPECT_EQ(axes.Evaluate(view, id, axis, test,
                                  StepExec{/*use_index=*/false, pushdown}),
                    expected)
              << "scan, pushdown " << pushdown << ", " << where();
          EXPECT_EQ(axes.Evaluate(view, id, axis, test,
                                  StepExec{/*use_index=*/true, pushdown}),
                    expected)
              << "probe, pushdown " << pushdown << ", " << where();
        }
      }
    }
  }
  // Leaf contexts: every cell of the view's partition as a bare range, no
  // node excluded, normalised to document order like node contexts.
  std::vector<goddag::Leaf> leaves;
  view.AppendLeavesIn(TextRange(0, view.base_text().size()), &leaves);
  ASSERT_FALSE(leaves.empty());
  for (const goddag::Leaf& leaf : leaves) {
    for (Axis axis : kExtendedAxes) {
      for (const NodeTest& test : tests) {
        const std::vector<NodeId> expected = DefinitionOne(
            view, leaf.range, goddag::kInvalidNode, axis, test);
        for (bool use_index : {false, true}) {
          EXPECT_EQ(axes.EvaluateRange(view, leaf.range, axis, test,
                                       StepExec{use_index, test.is_name()}),
                    expected)
              << "leaf " << leaf.range.ToString() << " axis "
              << AxisName(axis) << " index " << use_index;
        }
      }
    }
  }
}

// The strategy equivalence: the scan and the probe, each with and without
// pushdown, and the default exec must each return the literal
// Definition-1 node set for every extended axis, every element context and
// every leaf range — over the base document alone, and through an overlay
// view that adds a temporary hierarchy (whose elements then serve as
// contexts too).
void ExpectScanProbeAndDefinitionAgree(
    const goddag::DocumentSnapshot& snapshot) {
  const KyGoddag& kg = snapshot.goddag();
  AxisEvaluator axes(&snapshot);
  OverlayView plain(&kg);
  ExpectAgreeInView(axes, plain);
  for (NodeId id : ElementContexts(plain)) {
    for (Axis axis : kExtendedAxes) {
      EXPECT_EQ(axes.Evaluate(id, axis, NodeTest::Any()),
                DefinitionOne(plain, id, axis, NodeTest::Any()))
          << "base-only, axis " << AxisName(axis) << " context " << id;
    }
  }

  const size_t n = kg.base_text().size();
  auto overlay = goddag::GoddagOverlay::Create(
      &kg, std::make_shared<goddag::OverlayIdAllocator>(), "match",
      {goddag::VirtualElement{"w", TextRange(n / 8, n / 2), {}},
       goddag::VirtualElement{"g", TextRange(n / 4, n / 3), {}}});
  ASSERT_TRUE(overlay.ok()) << overlay.status();
  OverlayView overlaid(&kg);
  overlaid.AddOverlay(*overlay);
  ExpectAgreeInView(axes, overlaid);
}

TEST_F(PaperAxesTest, NaiveAndIndexedAgreeOnPaperDocument) {
  ExpectScanProbeAndDefinitionAgree(*snapshot_);
}

TEST(EditionAxesTest, NaiveAndIndexedAgreeOnGeneratedEdition) {
  workload::EditionConfig config;
  config.seed = 11;
  config.word_count = 90;
  config.chars_per_line = 19;
  config.damage_coverage = 0.25;
  config.restoration_coverage = 0.2;
  auto doc = workload::BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  // Layer a virtual hierarchy on top so recycled node ids are exercised too:
  // add, remove, and add again, one commit each.
  auto add = doc->NewWriter();
  add.AddVirtualHierarchy(
      "match", {goddag::VirtualElement{"m", TextRange(10, 60), {}},
                goddag::VirtualElement{"g", TextRange(20, 40), {}}});
  ASSERT_TRUE(add.Commit().ok());
  auto remove = doc->NewWriter();
  remove.RemoveVirtualHierarchy("match");
  ASSERT_TRUE(remove.Commit().ok());
  auto add_again = doc->NewWriter();
  add_again.AddVirtualHierarchy(
      "match2", {goddag::VirtualElement{"m", TextRange(15, 75), {}}});
  ASSERT_TRUE(add_again.Commit().ok());
  ExpectScanProbeAndDefinitionAgree(*doc->PinSnapshot());
}

TEST(AxisNameTest, RoundTrips) {
  for (Axis axis : {Axis::kSelf, Axis::kChild, Axis::kParent, Axis::kDescendant,
                    Axis::kDescendantOrSelf, Axis::kAncestor,
                    Axis::kAncestorOrSelf, Axis::kFollowingSibling,
                    Axis::kPrecedingSibling, Axis::kFollowing, Axis::kPreceding,
                    Axis::kXAncestor, Axis::kXDescendant, Axis::kOverlapping,
                    Axis::kXFollowing, Axis::kXPreceding}) {
    auto parsed = AxisFromName(AxisName(axis));
    ASSERT_TRUE(parsed.ok()) << AxisName(axis);
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_FALSE(AxisFromName("sideways").ok());
  EXPECT_TRUE(IsExtendedAxis(Axis::kOverlapping));
  EXPECT_FALSE(IsExtendedAxis(Axis::kDescendant));
}

// The one leaf-context axis mapping, shared by the engine and the planner:
// which axes reduce to which extended axis, and that every other axis makes
// the engine refuse the step.
TEST_F(PaperAxesTest, LeafContextAxisMappingMatchesEngine) {
  const struct {
    Axis axis;
    std::optional<Axis> extended;
  } kCases[] = {
      {Axis::kSelf, std::nullopt},
      {Axis::kChild, std::nullopt},
      {Axis::kParent, std::nullopt},
      {Axis::kDescendant, std::nullopt},
      {Axis::kDescendantOrSelf, std::nullopt},
      {Axis::kAncestor, Axis::kXAncestor},
      {Axis::kAncestorOrSelf, Axis::kXAncestor},
      {Axis::kFollowingSibling, std::nullopt},
      {Axis::kPrecedingSibling, std::nullopt},
      {Axis::kFollowing, Axis::kXFollowing},
      {Axis::kPreceding, Axis::kXPreceding},
      {Axis::kXAncestor, Axis::kXAncestor},
      {Axis::kXDescendant, Axis::kXDescendant},
      {Axis::kOverlapping, Axis::kOverlapping},
      {Axis::kXFollowing, Axis::kXFollowing},
      {Axis::kXPreceding, Axis::kXPreceding},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(LeafContextAxis(c.axis), c.extended) << AxisName(c.axis);
    const std::string query =
        "/descendant::leaf()/" + std::string(AxisName(c.axis)) + "::*";
    auto out = doc_->Query(query);
    if (c.extended) {
      EXPECT_TRUE(out.ok()) << query << ": " << out.status();
    } else {
      ASSERT_FALSE(out.ok()) << query;
      EXPECT_NE(out.status().message().find("cannot start from a leaf"),
                std::string::npos)
          << query << ": " << out.status();
    }
  }
}

}  // namespace
}  // namespace mhx::xpath
