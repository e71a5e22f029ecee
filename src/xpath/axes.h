// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// AxisEvaluator implements XPath axis steps over one published
// goddag::DocumentSnapshot: the standard single-hierarchy tree axes, plus
// the paper's five extended axes that see across hierarchies (Definition 1,
// restated over node ranges in DESIGN.md):
//
//   xancestor::    nodes (any hierarchy) whose range contains the context's
//   xdescendant::  nodes whose range is contained in the context's
//   overlapping::  nodes whose range properly overlaps the context's
//   xfollowing::   nodes whose range begins at or after the context's end
//   xpreceding::   nodes whose range ends at or before the context's start
//
// Every extended axis has two evaluation strategies, chosen per call by a
// StepExec (the XQuery planner's output): a probe of the snapshot's
// RangeIndex, or a vectorized scan of its packed RangeSoA (xpath/kernels.h).
// Both return the same node set — the E9 benchmark and the unit tests hold
// them to that against a literal Definition-1 loop. The default StepExec{}
// probes the index.
//
// Document order is this layer's job: every result — node contexts and
// leaf-context ranges alike — comes back in document order without
// duplicates, so the XQuery engine's step loop only merges per-context runs.
//
// Overlay views: every entry point but the base-only Evaluate takes a
// goddag::OverlayView and evaluates against an evaluation's overlay
// namespace as well as the base document. Extended axes then read uniformly
// as "base probe (or scan) + overlay scan" — overlay nodes are never
// indexed, their delta is tiny — and standard axes resolve parent/child
// arcs through the view. Views fork (goddag/overlay.h): a parallel
// worker's private view chains to the coordinator's, and both the overlay
// scan here and the view's own id resolution walk that chain. Overlay churn
// never touches the base index, which is what keeps analyze-string() cycles
// rebuild-free (index_rebuild_count()).
//
// MVCC binding: index() and the planner's statistics are the snapshot's
// build-once blocks — prebuilt by the writer that published the snapshot,
// so readers repinning after a commit pay zero rebuilds (CONCURRENCY.md).
// A published snapshot is never mutated, so both stay valid for the
// evaluator's lifetime.

#ifndef MHX_XPATH_AXES_H_
#define MHX_XPATH_AXES_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "goddag/snapshot.h"
#include "goddag/stats.h"

namespace mhx::xpath {

// Every axis a path step can name: the standard XPath axes plus the
// paper's five extended (overlap-aware) axes.
enum class Axis {
  // Standard XPath axes, evaluated within the context node's hierarchy.
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kDescendantOrSelf,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  // The paper's extended multihierarchical axes.
  kXAncestor,
  kXDescendant,
  kOverlapping,
  kXFollowing,
  kXPreceding,
};

bool IsExtendedAxis(Axis axis);
std::string_view AxisName(Axis axis);
StatusOr<Axis> AxisFromName(std::string_view name);

// The extended axis a step on `axis` reduces to from a leaf context, which
// the XQuery engine evaluates as a bare text range and the planner costs
// as that extended axis. A leaf belongs to every hierarchy, so `ancestor`
// and `ancestor-or-self` coincide with `xancestor` (nodes whose range
// contains the leaf), and `following`/`preceding` with `xfollowing`/
// `xpreceding`; the extended axes map to themselves. Empty for the axes
// that cannot start from a leaf (self, child, parent, descendant,
// descendant-or-self and the siblings).
std::optional<Axis> LeafContextAxis(Axis axis);

// The Definition-1 range predicate of one extended axis: does `candidate`
// stand in `axis` relation to a context with range `context`? The overlay
// scan half of every extended-axis evaluation, and the scalar core of the
// scan kernels.
bool ExtendedAxisMatches(Axis axis, const TextRange& context,
                         const TextRange& candidate);

// Node test applied after axis navigation.
class NodeTest {
 public:
  // Matches any document node (elements and the GODDAG root).
  static NodeTest Any();
  // Matches elements with the given name.
  static NodeTest Name(std::string name);

  bool Matches(const goddag::GNode& node) const;

  // True for name tests — what the planner's pushdown keys off.
  bool is_name() const { return kind_ == Kind::kName; }

  // The tested element name (empty for Any()).
  const std::string& name() const { return name_; }

 private:
  enum class Kind { kAny, kName };
  NodeTest(Kind kind, std::string name)
      : kind_(kind), name_(std::move(name)) {}

  Kind kind_;
  std::string name_;
};

// One path step's physical execution choice, produced per step by the
// XQuery planner (xquery/planner.h) or pinned by a forced plan mode:
// indexed probe vs. (vectorized) full scan for the extended axes, and
// whether a name test is pushed down into the probe/kernel so base
// candidates are filtered before they materialise. Every combination
// returns byte-identical node sets — the planner only moves cost.
struct StepExec {
  bool use_index = true;
  bool pushdown = false;
};

class AxisEvaluator {
 public:
  // Binds the evaluator to a pinned MVCC snapshot: navigation reads the
  // snapshot's goddag, index() and the planned paths read its build-once
  // index and statistics. `snapshot` must outlive the evaluator — the
  // XQuery engine pairs the two in one pinned entry.
  explicit AxisEvaluator(const goddag::DocumentSnapshot* snapshot);

  // Nodes reachable from `context` along `axis` that pass `test`, in
  // document order (range.begin ascending, longer ranges first, NodeId as
  // tiebreak), each at most once. Reads the view's overlays as well as the
  // base document, and resolves overlay ids through it. Extended axes run
  // the strategy `exec` names — scans use the vectorized RangeSoA kernels
  // (xpath/kernels.h) and fall back to the index probe when the packed
  // layout does not apply (text beyond INT32_MAX) — and exec.pushdown folds
  // a name test into the probe/kernel as an interned-key compare, so base
  // candidates are filtered before they materialise. Every exec returns
  // the same ids; standard axes ignore it and walk arcs.
  std::vector<goddag::NodeId> Evaluate(const goddag::OverlayView& view,
                                       goddag::NodeId context, Axis axis,
                                       const NodeTest& test,
                                       StepExec exec = {}) const;

  // Evaluate for a bare text range (the XQuery engine's leaf contexts),
  // with the same order, strategy and pushdown contract. No node is
  // excluded. `axis` must be an extended axis (see LeafContextAxis).
  std::vector<goddag::NodeId> EvaluateRange(const goddag::OverlayView& view,
                                            const TextRange& range, Axis axis,
                                            const NodeTest& test,
                                            StepExec exec = {}) const;

  // Evaluate over the base document alone, with the default index probe.
  std::vector<goddag::NodeId> Evaluate(goddag::NodeId context, Axis axis,
                                       const NodeTest& test) const;

  // The snapshot's build-once RangeIndex over the *base* document (overlay
  // churn never touches it). Writer-prebuilt snapshots cost this evaluator
  // zero rebuilds; a lazily indexed snapshot (the Build()-time initial
  // version) is built exactly once, by whichever evaluator asks first.
  // Once materialised (the XQuery engine forces this before evaluation)
  // concurrent readers never trigger a build.
  const goddag::RangeIndex& index() const;

  // Number of RangeIndex constructions this evaluator has paid for — the
  // observable that proves analyze-string() overlay cycles never rebuild
  // the base index.
  size_t index_rebuild_count() const { return index_rebuild_count_; }

 private:
  // The node-context implementation; `view` is null for the base-only
  // overload.
  std::vector<goddag::NodeId> EvaluateNode(const goddag::OverlayView* view,
                                           goddag::NodeId context, Axis axis,
                                           const NodeTest& test,
                                           StepExec exec) const;
  const goddag::GNode& NodeAt(const goddag::OverlayView* view,
                              goddag::NodeId id) const {
    return view != nullptr ? view->node(id) : goddag_->node(id);
  }
  // One extended-axis evaluation against a context range, unordered: the
  // base half (index probe or kernel scan per `exec`, filtered by `test`)
  // plus, with a view, the overlay half. `exclude` drops the context node
  // (kInvalidNode for leaf contexts).
  void EvaluateExtended(const goddag::OverlayView* view,
                        const TextRange& context_range, goddag::NodeId exclude,
                        Axis axis, const NodeTest& test, StepExec exec,
                        std::vector<goddag::NodeId>* out) const;
  // The base RangeIndex probe for a context range.
  void EvaluateExtendedIndexed(const TextRange& context,
                               goddag::NodeId exclude, Axis axis,
                               const goddag::ProbeFilter& filter,
                               std::vector<goddag::NodeId>* out) const;
  // The overlay half of every extended-axis evaluation: a linear scan of
  // the view's overlay elements (plumbing roots excluded) against the
  // Definition-1 predicate and `test`. Walks the view's fork chain, so a
  // worker's private view scans the coordinator's overlays and the kept
  // hierarchies as well as its own.
  void AppendOverlayMatches(const goddag::OverlayView& view, Axis axis,
                            const TextRange& context_range,
                            goddag::NodeId exclude, const NodeTest& test,
                            std::vector<goddag::NodeId>* out) const;
  void EvaluateStandard(const goddag::OverlayView* view,
                        goddag::NodeId context, Axis axis,
                        std::vector<goddag::NodeId>* out) const;
  // Establishes document order: a linear is_sorted scan first, the
  // O(n log n) sort only when the scan finds an inversion. The scan,
  // rather than a static per-axis whitelist, is what makes the guarantee
  // honest: overlay hits append after base hits, index probes return
  // index order, and a cross-hierarchy descendant walk from the GODDAG
  // root interleaves hierarchies.
  void NormalizeDocumentOrder(const goddag::OverlayView* view,
                              std::vector<goddag::NodeId>* ids) const;

  const goddag::DocumentSnapshot* snapshot_;
  // snapshot_->goddag(), cached for the hot navigation paths.
  const goddag::KyGoddag* goddag_;
  mutable size_t index_rebuild_count_ = 0;
};

}  // namespace mhx::xpath

#endif  // MHX_XPATH_AXES_H_
