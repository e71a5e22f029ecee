// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xpath/axes.h"

#include <algorithm>

#include "xpath/kernels.h"

namespace mhx::xpath {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::NodeId;
using goddag::kInvalidNode;

bool IsExtendedAxis(Axis axis) {
  switch (axis) {
    case Axis::kXAncestor:
    case Axis::kXDescendant:
    case Axis::kOverlapping:
    case Axis::kXFollowing:
    case Axis::kXPreceding:
      return true;
    default:
      return false;
  }
}

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kXAncestor:
      return "xancestor";
    case Axis::kXDescendant:
      return "xdescendant";
    case Axis::kOverlapping:
      return "overlapping";
    case Axis::kXFollowing:
      return "xfollowing";
    case Axis::kXPreceding:
      return "xpreceding";
  }
  return "unknown";
}

std::string_view OrderingName(Ordering ordering) {
  switch (ordering) {
    case Ordering::kDocOrderNoDupes:
      return "doc-order-no-dupes";
    case Ordering::kSortedMayDupe:
      return "sorted-may-dupe";
    case Ordering::kUnordered:
      return "unordered";
  }
  return "unknown";
}

bool ExtendedAxisMatches(Axis axis, const TextRange& context,
                         const TextRange& candidate) {
  switch (axis) {
    case Axis::kXAncestor:
      return candidate.Contains(context);
    case Axis::kXDescendant:
      return context.Contains(candidate);
    case Axis::kOverlapping:
      return OverlappingRange(context, candidate);
    case Axis::kXFollowing:
      return candidate.begin >= context.end;
    case Axis::kXPreceding:
      return candidate.end <= context.begin;
    default:
      return false;
  }
}

StatusOr<Axis> AxisFromName(std::string_view name) {
  static const std::map<std::string_view, Axis> kByName = {
      {"self", Axis::kSelf},
      {"child", Axis::kChild},
      {"parent", Axis::kParent},
      {"descendant", Axis::kDescendant},
      {"descendant-or-self", Axis::kDescendantOrSelf},
      {"ancestor", Axis::kAncestor},
      {"ancestor-or-self", Axis::kAncestorOrSelf},
      {"following-sibling", Axis::kFollowingSibling},
      {"preceding-sibling", Axis::kPrecedingSibling},
      {"following", Axis::kFollowing},
      {"preceding", Axis::kPreceding},
      {"xancestor", Axis::kXAncestor},
      {"xdescendant", Axis::kXDescendant},
      {"overlapping", Axis::kOverlapping},
      {"xfollowing", Axis::kXFollowing},
      {"xpreceding", Axis::kXPreceding},
  };
  auto it = kByName.find(name);
  if (it == kByName.end()) {
    return InvalidArgumentError("unknown axis '" + std::string(name) + "'");
  }
  return it->second;
}

NodeTest NodeTest::Any() { return NodeTest(Kind::kAny, {}); }

NodeTest NodeTest::Name(std::string name) {
  return NodeTest(Kind::kName, std::move(name));
}

bool NodeTest::Matches(const GNode& node) const {
  switch (kind_) {
    case Kind::kAny:
      return node.kind != GNodeKind::kFree;
    case Kind::kName:
      return node.kind == GNodeKind::kElement && node.name == name_;
  }
  return false;
}

AxisEvaluator::AxisEvaluator(const goddag::DocumentSnapshot* snapshot)
    : snapshot_(snapshot), goddag_(&snapshot->goddag()) {}

const goddag::RangeIndex& AxisEvaluator::index() const {
  // A writer-prebuilt index costs this evaluator nothing; a lazily indexed
  // snapshot is built exactly once, and the builder counts it (EnsureIndex
  // reports whether this call built).
  if (snapshot_->EnsureIndex()) ++index_rebuild_count_;
  return snapshot_->index();
}

Ordering AxisEvaluator::ResultOrdering(Axis axis) {
  // Every axis: each traversal visits a node at most once, and
  // NormalizeDocumentOrder establishes document order before returning.
  (void)axis;
  return Ordering::kDocOrderNoDupes;
}

void AxisEvaluator::NormalizeDocumentOrder(const goddag::OverlayView* view,
                                           std::vector<NodeId>* ids) const {
  if (ids->size() < 2) return;
  auto cmp = [this, view](NodeId a, NodeId b) {
    const TextRange& ra = NodeAt(view, a).range;
    const TextRange& rb = NodeAt(view, b).range;
    if (ra != rb) return ra < rb;
    return a < b;
  };
  if (std::is_sorted(ids->begin(), ids->end(), cmp)) {
    sorts_skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::sort(ids->begin(), ids->end(), cmp);
}

void AxisEvaluator::EvaluateExtendedIndexed(const TextRange& c,
                                            NodeId exclude, Axis axis,
                                            const goddag::ProbeFilter& filter,
                                            std::vector<NodeId>* out) const {
  const goddag::RangeIndex& idx = index();
  std::vector<NodeId> hits;
  switch (axis) {
    case Axis::kXAncestor:
      hits = idx.NodesContaining(c, filter);
      break;
    case Axis::kXDescendant:
      hits = idx.NodesContainedIn(c, filter);
      break;
    case Axis::kOverlapping:
      hits = idx.NodesOverlapping(c, filter);
      break;
    case Axis::kXFollowing:
      hits = idx.NodesBeginningAtOrAfter(c.end, filter);
      break;
    case Axis::kXPreceding:
      hits = idx.NodesEndingAtOrBefore(c.begin, filter);
      break;
    default:
      return;
  }
  out->reserve(hits.size());
  for (NodeId id : hits) {
    if (id != exclude) out->push_back(id);
  }
}

void AxisEvaluator::AppendOverlayMatches(const goddag::OverlayView& view,
                                         Axis axis,
                                         const TextRange& context_range,
                                         NodeId exclude, const NodeTest* test,
                                         std::vector<NodeId>* out) const {
  // A forked worker view holds only the overlays its own evaluation
  // created; everything else visible to it (kept hierarchies, the
  // coordinator's overlays) lives up the parent chain.
  for (const goddag::OverlayView* v = &view; v != nullptr; v = v->parent()) {
    for (const auto& overlay : v->overlays()) {
      // The auto-created whole-text root is plumbing, not a result: start
      // at elements_begin() so it never shows up as an xancestor of
      // everything.
      for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
           ++id) {
        if (id == exclude) continue;
        const GNode& node = overlay->node(id);
        if (test != nullptr && !test->Matches(node)) continue;
        if (ExtendedAxisMatches(axis, context_range, node.range)) {
          out->push_back(id);
        }
      }
    }
  }
}

void AxisEvaluator::EvaluateStandard(const goddag::OverlayView* view,
                                     NodeId context, Axis axis,
                                     std::vector<NodeId>* out) const {
  const GNode& node = NodeAt(view, context);
  switch (axis) {
    case Axis::kSelf:
      out->push_back(context);
      return;
    case Axis::kChild:
      *out = node.children;
      return;
    case Axis::kParent:
      if (node.parent != kInvalidNode) out->push_back(node.parent);
      return;
    case Axis::kDescendantOrSelf:
      out->push_back(context);
      [[fallthrough]];
    case Axis::kDescendant: {
      // Iterative pre-order DFS over arcs.
      std::vector<NodeId> stack(node.children.rbegin(), node.children.rend());
      while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        out->push_back(id);
        const GNode& n = NodeAt(view, id);
        stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
      }
      return;
    }
    case Axis::kAncestorOrSelf:
      out->push_back(context);
      [[fallthrough]];
    case Axis::kAncestor: {
      // An overlay root's parent is the base GODDAG root, so the chain may
      // cross from overlay into base ids; NodeAt resolves both.
      for (NodeId p = node.parent; p != kInvalidNode;
           p = NodeAt(view, p).parent) {
        out->push_back(p);
      }
      // The walk-up visits innermost-first — exactly reverse document order.
      // Reverse here so normalisation sees a sorted chain and skips the sort.
      std::reverse(out->begin(), out->end());
      return;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      if (node.parent == kInvalidNode) return;
      const std::vector<NodeId>& siblings =
          NodeAt(view, node.parent).children;
      auto self = std::find(siblings.begin(), siblings.end(), context);
      if (self == siblings.end()) return;
      if (axis == Axis::kFollowingSibling) {
        out->insert(out->end(), self + 1, siblings.end());
      } else {
        out->insert(out->end(), siblings.begin(), self);
      }
      return;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      // Within the context's own hierarchy. Because same-hierarchy ranges
      // nest or are disjoint, document-order following reduces to "begins at
      // or after my end" and preceding to "ends at or before my start". An
      // overlay node's hierarchy is its overlay.
      if (node.kind != GNodeKind::kElement) return;
      if (goddag::IsOverlayId(context)) {
        const goddag::GoddagOverlay* overlay = view->overlay_of(context);
        for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
             ++id) {
          const GNode& n = overlay->node(id);
          bool hit = axis == Axis::kFollowing
                         ? n.range.begin >= node.range.end
                         : n.range.end <= node.range.begin;
          if (hit && id != context) out->push_back(id);
        }
        return;
      }
      const goddag::Hierarchy& h = goddag_->hierarchy(node.hierarchy);
      for (NodeId id : h.nodes) {
        const GNode& n = goddag_->node(id);
        bool hit = axis == Axis::kFollowing ? n.range.begin >= node.range.end
                                           : n.range.end <= node.range.begin;
        if (hit && id != context) out->push_back(id);
      }
      return;
    }
    default:
      return;
  }
}

std::vector<NodeId> AxisEvaluator::EvaluateAxisOnlyImpl(
    const goddag::OverlayView* view, NodeId context, Axis axis) const {
  std::vector<NodeId> out;
  if (goddag::IsOverlayId(context)) {
    if (view == nullptr || view->overlay_of(context) == nullptr) return out;
  } else if (context >= goddag_->node_table_size()) {
    return out;
  }
  const GNode& context_node = NodeAt(view, context);
  if (context_node.kind == GNodeKind::kFree) return out;
  if (IsExtendedAxis(axis)) {
    EvaluateExtendedIndexed(context_node.range, context, axis, {}, &out);
    if (view != nullptr) {
      AppendOverlayMatches(*view, axis, context_node.range, context,
                           /*test=*/nullptr, &out);
    }
  } else {
    EvaluateStandard(view, context, axis, &out);
  }
  NormalizeDocumentOrder(view, &out);
  return out;
}

std::vector<NodeId> AxisEvaluator::EvaluateAxisOnly(NodeId context,
                                                    Axis axis) const {
  return EvaluateAxisOnlyImpl(nullptr, context, axis);
}

std::vector<NodeId> AxisEvaluator::EvaluateAxisOnly(
    const goddag::OverlayView& view, NodeId context, Axis axis) const {
  return EvaluateAxisOnlyImpl(&view, context, axis);
}

std::vector<NodeId> AxisEvaluator::Evaluate(NodeId context, Axis axis,
                                            const NodeTest& test) const {
  std::vector<NodeId> out = EvaluateAxisOnlyImpl(nullptr, context, axis);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [this, &test](NodeId id) {
                             return !test.Matches(goddag_->node(id));
                           }),
            out.end());
  return out;
}

std::vector<NodeId> AxisEvaluator::Evaluate(const goddag::OverlayView& view,
                                            NodeId context, Axis axis,
                                            const NodeTest& test) const {
  std::vector<NodeId> out = EvaluateAxisOnlyImpl(&view, context, axis);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&view, &test](NodeId id) {
                             return !test.Matches(view.node(id));
                           }),
            out.end());
  return out;
}

std::vector<NodeId> AxisEvaluator::EvaluateRange(
    const goddag::OverlayView& view, const TextRange& context,
    Axis axis) const {
  std::vector<NodeId> out;
  EvaluateExtendedIndexed(context, kInvalidNode, axis, {}, &out);
  AppendOverlayMatches(view, axis, context, kInvalidNode, /*test=*/nullptr,
                       &out);
  return out;
}

bool AxisEvaluator::EvaluateExtendedPlannedBase(
    const TextRange& context_range, NodeId exclude, Axis axis,
    const NodeTest& test, const StepExec& exec,
    std::vector<NodeId>* out) const {
  const goddag::SnapshotStats& stats = snapshot_->stats();
  const bool pushdown = exec.pushdown && test.is_name();
  const uint32_t key =
      pushdown ? stats.name_key(test.name()) : goddag::kNoNameKey;
  if (pushdown && key == goddag::kNoNameKey) {
    // No live base element bears this name: the base half is empty by the
    // statistics alone (overlay hits are the caller's job).
    return true;
  }
  // Scan side: the vectorized RangeSoA kernels. They decline only when the
  // packed layout does not apply (text beyond INT32_MAX); the index probe
  // below then returns the same node set.
  if (!exec.use_index && ScanExtendedAxis(stats.soa(), axis, context_range,
                                          exclude, key, KernelIsa::kAuto,
                                          out)) {
    return pushdown;
  }
  goddag::ProbeFilter filter;
  if (pushdown) filter = {stats.node_name_keys().data(), key};
  EvaluateExtendedIndexed(context_range, exclude, axis, filter, out);
  return pushdown;
}

std::vector<NodeId> AxisEvaluator::EvaluatePlanned(
    const goddag::OverlayView& view, NodeId context, Axis axis,
    const NodeTest& test, const StepExec& exec) const {
  if (!IsExtendedAxis(axis)) return Evaluate(view, context, axis, test);
  std::vector<NodeId> out;
  if (goddag::IsOverlayId(context)) {
    if (view.overlay_of(context) == nullptr) return out;
  } else if (context >= goddag_->node_table_size()) {
    return out;
  }
  const GNode& context_node = view.node(context);
  if (context_node.kind == GNodeKind::kFree) return out;
  const bool base_filtered = EvaluateExtendedPlannedBase(
      context_node.range, context, axis, test, exec, &out);
  if (!base_filtered) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this, &test](NodeId id) {
                               return !test.Matches(goddag_->node(id));
                             }),
              out.end());
  }
  AppendOverlayMatches(view, axis, context_node.range, context, &test, &out);
  // Filtering before the sort returns the same bytes as Evaluate's
  // sort-then-filter: the comparator is a strict total order and removal
  // is subset-stable.
  NormalizeDocumentOrder(&view, &out);
  return out;
}

std::vector<NodeId> AxisEvaluator::EvaluateRangePlanned(
    const goddag::OverlayView& view, const TextRange& context, Axis axis,
    const NodeTest& test, const StepExec& exec) const {
  std::vector<NodeId> out;
  const bool base_filtered = EvaluateExtendedPlannedBase(
      context, kInvalidNode, axis, test, exec, &out);
  if (!base_filtered) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this, &test](NodeId id) {
                               return !test.Matches(goddag_->node(id));
                             }),
              out.end());
  }
  AppendOverlayMatches(view, axis, context, kInvalidNode, &test, &out);
  return out;
}

}  // namespace mhx::xpath
