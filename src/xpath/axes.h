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
// them to that against a literal Definition-1 loop. The unplanned entry
// points always probe the index.
//
// Overlay views: every entry point has a goddag::OverlayView overload that
// evaluates against an evaluation's overlay namespace as well as the base
// document. Extended axes then read uniformly as "base probe (or scan) +
// overlay scan" — overlay nodes are never indexed, their delta is tiny —
// and standard axes resolve parent/child arcs through the view. Views fork
// (goddag/overlay.h): a parallel worker's private view chains to the
// coordinator's, and both the overlay scan here and the view's own id
// resolution walk that chain. Overlay churn never touches the base index,
// which is what keeps analyze-string() cycles rebuild-free
// (index_rebuild_count()).
//
// MVCC binding: index() and the planner's statistics are the snapshot's
// build-once blocks — prebuilt by the writer that published the snapshot,
// so readers repinning after a commit pay zero rebuilds (CONCURRENCY.md).
// A published snapshot is never mutated, so both stay valid for the
// evaluator's lifetime.

#ifndef MHX_XPATH_AXES_H_
#define MHX_XPATH_AXES_H_

#include <atomic>
#include <map>
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

// What a producer of a node/leaf sequence guarantees about its output. The
// XQuery engine's step loop keys off this to replace its former
// unconditional sort+dedup with the cheapest sufficient fix-up: nothing for
// kDocOrderNoDupes, a linear dedup pass for kSortedMayDupe (the state a
// linear merge of doc-ordered runs leaves behind), a full sort+dedup only
// for kUnordered.
enum class Ordering {
  kDocOrderNoDupes,  // document order, every item at most once
  kSortedMayDupe,    // document order, items may repeat
  kUnordered,        // no guarantee
};

std::string_view OrderingName(Ordering ordering);

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

  // Nodes reachable from `context` along `axis`, in document order
  // (range.begin ascending, longer ranges first, NodeId as tiebreak).
  // The base-only overloads see the base document alone; the OverlayView
  // overloads additionally see (and resolve ids of) the view's overlays.
  std::vector<goddag::NodeId> EvaluateAxisOnly(goddag::NodeId context,
                                               Axis axis) const;
  std::vector<goddag::NodeId> EvaluateAxisOnly(
      const goddag::OverlayView& view, goddag::NodeId context,
      Axis axis) const;

  // EvaluateAxisOnly filtered by a node test.
  std::vector<goddag::NodeId> Evaluate(goddag::NodeId context, Axis axis,
                                       const NodeTest& test) const;
  std::vector<goddag::NodeId> Evaluate(const goddag::OverlayView& view,
                                       goddag::NodeId context, Axis axis,
                                       const NodeTest& test) const;

  // Extended-axis hits for a bare text range (the XQuery engine's leaf
  // contexts): base RangeIndex probe plus overlay scan, not normalised —
  // index traversal order is not document order, so callers treat the
  // result as Ordering::kUnordered. `axis` must be an extended axis.
  std::vector<goddag::NodeId> EvaluateRange(const goddag::OverlayView& view,
                                            const TextRange& context,
                                            Axis axis) const;

  // Planner-driven Evaluate: the extended-axis strategy comes from `exec`
  // — scans run the vectorized RangeSoA kernels (xpath/kernels.h), and
  // fall back to the index probe when the packed layout does not apply
  // (text beyond INT32_MAX) — and exec.pushdown folds a name test into the
  // probe/kernel as an interned-key compare, so base candidates are
  // pre-filtered. Output is byte-identical to Evaluate(view, context, axis,
  // test) for every exec; standard axes ignore exec and walk arcs as
  // always.
  std::vector<goddag::NodeId> EvaluatePlanned(const goddag::OverlayView& view,
                                              goddag::NodeId context,
                                              Axis axis, const NodeTest& test,
                                              const StepExec& exec) const;

  // Planner-driven EvaluateRange: same strategy/pushdown contract as
  // EvaluatePlanned, for the engine's leaf contexts. Unlike EvaluateRange,
  // the result is already filtered by `test` (base hits inside the
  // probe/kernel when pushed down, overlay hits as they append), so
  // callers skip their own re-filter. Ordering::kUnordered, like
  // EvaluateRange. `axis` must be an extended axis.
  std::vector<goddag::NodeId> EvaluateRangePlanned(
      const goddag::OverlayView& view, const TextRange& context, Axis axis,
      const NodeTest& test, const StepExec& exec) const;

  // The ordering guarantee Evaluate/EvaluateAxisOnly declare for `axis`:
  // always kDocOrderNoDupes — every traversal visits a node at most once
  // (base ids and overlay ids are disjoint namespaces), and the evaluator
  // normalises the rare traversals that are not already in document order.
  // Downstream step loops may therefore skip their own sort+dedup for
  // single-context axis results (the XQuery engine does, and counts the
  // skips). Declared per axis so callers key off the contract, not off
  // evaluator internals.
  static Ordering ResultOrdering(Axis axis);

  // Document-order sorts EvaluateAxisOnly avoided because the traversal was
  // already sorted (child/descendant walks, sibling slices, the reversed
  // ancestor chain). Relaxed atomic: bumped from const evaluation, read by
  // benchmarks; exactness across racing readers is not required.
  size_t sorts_skipped() const {
    return sorts_skipped_.load(std::memory_order_relaxed);
  }

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
  // Shared implementations; `view` is null for the base-only overloads.
  std::vector<goddag::NodeId> EvaluateAxisOnlyImpl(
      const goddag::OverlayView* view, goddag::NodeId context,
      Axis axis) const;
  const goddag::GNode& NodeAt(const goddag::OverlayView* view,
                              goddag::NodeId id) const {
    return view != nullptr ? view->node(id) : goddag_->node(id);
  }
  // The base RangeIndex probe for a context range; `exclude` drops the
  // context node (kInvalidNode for leaf contexts).
  void EvaluateExtendedIndexed(const TextRange& context,
                               goddag::NodeId exclude, Axis axis,
                               const goddag::ProbeFilter& filter,
                               std::vector<goddag::NodeId>* out) const;
  // The base-table half of a planned extended-axis evaluation: indexed
  // probe or (vectorized) scan per `exec`, pushdown folded in. Returns
  // true when the appended hits are already filtered by `test`.
  bool EvaluateExtendedPlannedBase(const TextRange& context_range,
                                   goddag::NodeId exclude, Axis axis,
                                   const NodeTest& test, const StepExec& exec,
                                   std::vector<goddag::NodeId>* out) const;
  // The overlay half of every extended-axis evaluation: a linear scan of
  // the view's overlay elements (plumbing roots excluded) against the
  // Definition-1 predicate. Walks the view's fork chain, so a worker's
  // private view scans the coordinator's overlays and the kept
  // hierarchies as well as its own. A non-null `test` filters matches as
  // they append (the planned path, where base hits are pre-filtered).
  void AppendOverlayMatches(const goddag::OverlayView& view, Axis axis,
                            const TextRange& context_range,
                            goddag::NodeId exclude, const NodeTest* test,
                            std::vector<goddag::NodeId>* out) const;
  void EvaluateStandard(const goddag::OverlayView* view,
                        goddag::NodeId context, Axis axis,
                        std::vector<goddag::NodeId>* out) const;
  // Establishes document order: a linear is_sorted scan first (counted as a
  // skipped sort when it passes on 2+ elements), the O(n log n) sort only
  // when the scan finds an inversion. The scan, rather than a purely static
  // per-axis whitelist, is what makes the guarantee honest: overlay hits
  // append after base hits, and a cross-hierarchy descendant walk from the
  // GODDAG root interleaves hierarchies.
  void NormalizeDocumentOrder(const goddag::OverlayView* view,
                              std::vector<goddag::NodeId>* ids) const;

  const goddag::DocumentSnapshot* snapshot_;
  // snapshot_->goddag(), cached for the hot navigation paths.
  const goddag::KyGoddag* goddag_;
  mutable size_t index_rebuild_count_ = 0;
  mutable std::atomic<size_t> sorts_skipped_{0};
};

}  // namespace mhx::xpath

#endif  // MHX_XPATH_AXES_H_
