// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Evaluation-scoped hierarchy overlays. A GoddagOverlay is one temporary
// virtual hierarchy (the kind analyze-string() materialises) held in a
// private node arena *outside* the base KyGoddag: the base document is never
// mutated, so any number of evaluations can build, read, and drop overlays
// concurrently while sharing one immutable base.
//
// Id namespace: overlay nodes live in the upper half of the NodeId space
// (kOverlayIdBit set). Blocks of ids are leased from an OverlayIdAllocator
// shared by every overlay that can ever meet in one view, so overlay ids
// never collide with base ids or with each other. An OverlayView is the
// single node-resolution seam readers go through: it resolves base ids
// against the KyGoddag, overlay ids against the (few) overlays registered
// with it, and enumerates the leaf partition the evaluation sees (base
// leaves re-split at overlay element boundaries) one range at a time.
//
// Lifetime rules: an overlay is immutable after Create and refcounted
// (shared_ptr); it releases its id block on destruction. A view registers
// overlays but never outlives the evaluation that owns it; the XQuery
// engine keeps an evaluation's overlays alive past the evaluation only
// through the KeptTemporaries handle (xquery/engine.h).
//
// Overlays sit *above* the MVCC document-version layer: an overlay
// annotates the one immutable snapshot its evaluation pinned and is never
// part of any published version — Writer commits and overlay builds never
// meet in a write. CONCURRENCY.md is the authoritative statement of the
// layering and of every lifetime rule summarised here.

#ifndef MHX_GODDAG_OVERLAY_H_
#define MHX_GODDAG_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "goddag/kygoddag.h"

namespace mhx::goddag {

// Overlay node ids occupy the upper half of the NodeId space. kInvalidNode
// also has the bit set and is never a valid overlay id.
inline constexpr NodeId kOverlayIdBit = 0x80000000u;

inline bool IsOverlayId(NodeId id) {
  return (id & kOverlayIdBit) != 0 && id != kInvalidNode;
}

// GNode::hierarchy value for overlay nodes: overlays are not entries of the
// base hierarchy table, so the field deliberately points nowhere.
inline constexpr HierarchyId kOverlayHierarchy = static_cast<HierarchyId>(-1);

// Thread-safe lessor of contiguous overlay-id blocks. All overlays that can
// appear together in one OverlayView must draw from the same allocator (the
// XQuery engine owns one per engine, shared with every overlay it creates
// so an overlay kept alive past the engine still releases safely). The
// namespace holds 2^31 - 1 ids; blocks come from a first-fit scan of the
// free list (released holes, coalesced when adjacent) and only then from
// the monotonic tail cursor. Reclamation is two-tier: tail rewind pulls
// the cursor back over a released suffix, and holes sandwiched under
// live blocks — the corpus reality of many long-lived engines sharing one
// process — are reused directly by first fit instead of waiting for the
// blocks above them to go. Exhaustion therefore requires ~2^31 overlay
// nodes in *live* blocks plus unfillable fragmentation slack.
class OverlayIdAllocator {
 public:
  // Leases a block of `count` ids and returns its first id (overlay bit
  // set), or kInvalidNode if the namespace is exhausted.
  NodeId Allocate(size_t count);
  // Returns a block previously obtained from Allocate, identified by its
  // first id.
  void Release(NodeId begin, size_t count);

 private:
  std::mutex mu_;
  uint32_t next_ = 0;
  uint64_t outstanding_ = 0;
  // Released blocks (offset -> count) not yet absorbed by a tail rewind:
  // blocks freed underneath a still-live block wait here and are reclaimed
  // the moment everything above them releases.
  std::map<uint32_t, uint32_t> freed_;
};

// One temporary virtual hierarchy over an immutable base document: an
// auto-created root element spanning the whole base text (plumbing — kept
// out of extended-axis scans, exactly like the root KyGoddag's virtual
// hierarchies auto-create) plus the given elements, which must pairwise
// nest or be disjoint. Nodes live at the contiguous id block
// [id_begin(), id_end()); the root is id_begin(), the elements follow in
// document order. Immutable after Create.
class GoddagOverlay {
 public:
  // Validates `elements` (same rules as KyGoddag::AddVirtualHierarchy) and
  // builds the hierarchy. Fails with the validation error, or with
  // ResourceExhausted when `ids` cannot lease a block. The overlay shares
  // ownership of the allocator, so it may outlive the engine that created
  // it (a KeptTemporaries handle held past engine destruction stays safe).
  static StatusOr<std::shared_ptr<const GoddagOverlay>> Create(
      const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
      const std::string& name, std::vector<VirtualElement> elements);

  ~GoddagOverlay();

  GoddagOverlay(const GoddagOverlay&) = delete;
  GoddagOverlay& operator=(const GoddagOverlay&) = delete;

  // The leased contiguous id block [id_begin(), id_end()). Immutable, so
  // every accessor on this class is safe from any thread without locking.
  NodeId id_begin() const { return id_begin_; }
  // One past the last id of the block.
  NodeId id_end() const {
    return id_begin_ + static_cast<NodeId>(arena_.size());
  }
  // Number of nodes (root + elements) in the overlay.
  size_t node_count() const { return arena_.size(); }
  // Whether `id` falls inside this overlay's id block.
  bool Contains(NodeId id) const {
    return id >= id_begin_ && id < id_end();
  }
  // The auto-created whole-text root. Plumbing, not a result: extended-axis
  // scans skip it (it would otherwise be an xancestor of every node).
  NodeId root() const { return id_begin_; }
  // First non-root element id; elements occupy [elements_begin(), id_end())
  // in document order.
  NodeId elements_begin() const { return id_begin_ + 1; }

  // The node stored at `id`; `Contains(id)` is the caller's precondition
  // (resolution normally goes through OverlayView::node).
  const GNode& node(NodeId id) const { return arena_[id - id_begin_]; }

 private:
  GoddagOverlay(std::shared_ptr<OverlayIdAllocator> ids, NodeId id_begin)
      : ids_(std::move(ids)), id_begin_(id_begin) {}

  std::shared_ptr<OverlayIdAllocator> ids_;
  NodeId id_begin_;
  std::vector<GNode> arena_;
};

// The read seam of one evaluation: an immutable base KyGoddag plus every
// overlay visible to the evaluation (hierarchies kept by earlier
// EvaluateKeepingTemporaries calls, then the evaluation's own). Node
// resolution, node-to-string, and leaf enumeration all go through here.
//
// Views form a fork tree: a parallel worker (or a serial loop binding)
// forks a child view off the enclosing view and registers its own overlays
// there, so analyze-string() inside a binding body writes binding-private
// state only. A child resolves ids it does not own — and reads the overlay
// cuts it does not own — through its parent, so the enclosing overlays stay
// visible without being copied. At join the engine re-adds the bindings'
// overlays to the enclosing view in binding order.
//
// No view ever materialises a whole merged partition: AppendLeavesIn splits
// only the base cells inside the requested range, at the overlay cuts
// inside it, so a leaf() step costs O(log partition + cells in range) no
// matter how long the document is or how many views hang off it.
//
// Not thread-safe for mutation: AddOverlay may only be called by the
// evaluation (or worker) that owns the view, never concurrently with its
// readers. A parent view must be frozen — no AddOverlay — while forked
// children exist; the engine guarantees this because the forking evaluator
// blocks in the join for as long as its workers run. Reads are const and
// safe to share across threads (the lazily sorted cut list is
// mutex-guarded).
class OverlayView {
 public:
  // A root view over `base`, which must stay alive and structurally
  // unchanged for the view's lifetime — the engine satisfies this by
  // pointing views at the goddag of a pinned DocumentSnapshot.
  explicit OverlayView(const KyGoddag* base) : base_(base) {}

  // Forks a worker-private child view: ids the child does not own resolve
  // through `parent` (recursively up the fork tree), and its leaves are
  // split at the parent chain's cuts as well as its own. `parent` must
  // outlive the child and stay frozen while the child exists.
  explicit OverlayView(const OverlayView* parent)
      : base_(parent->base_), parent_(parent) {}

  // The parent this view was forked from, or nullptr for a root view.
  const OverlayView* parent() const { return parent_; }

  // The base document, its text, and the GODDAG root — straight
  // pass-throughs to the (immutable) base; safe from any thread.
  const KyGoddag& base() const { return *base_; }
  // The shared base text every hierarchy and overlay annotates.
  const std::string& base_text() const { return base_->base_text(); }
  // The base GODDAG's unique root node id.
  NodeId root() const { return base_->root(); }

  // Registers an overlay (kept sorted by id_begin for binary-search
  // resolution) and queues its element boundaries for the view's sorted
  // cut list, which the next AppendLeavesIn drains in one sort-and-merge
  // pass. Evaluations that never run a leaf() step pay nothing for their
  // overlays.
  void AddOverlay(std::shared_ptr<const GoddagOverlay> overlay);

  // Overlays registered on THIS view — a forked child's parents hold
  // theirs; readers that must see every overlay visible to the view (the
  // axis layer's overlay scans) walk the parent() chain.
  bool has_overlays() const { return !overlays_.empty(); }
  const std::vector<std::shared_ptr<const GoddagOverlay>>& overlays() const {
    return overlays_;
  }

  // The overlay owning `id` — searched here, then up the parent chain —
  // or nullptr. `id` must be an overlay id.
  const GoddagOverlay* overlay_of(NodeId id) const;

  // Resolves any node id — base ids against the base document, overlay ids
  // against the registered overlays. Like KyGoddag::node, resolving an id
  // that does not exist is undefined behaviour.
  const GNode& node(NodeId id) const {
    return IsOverlayId(id) ? overlay_of(id)->node(id) : base_->node(id);
  }

  // Base-text content dominated by a node (any namespace).
  std::string NodeString(NodeId id) const;

  // Appends, in text order, every cell of the leaf partition this view
  // sees — the base partition re-split at every element boundary of every
  // overlay on this view and its parent chain — that lies wholly inside
  // `range`, starting at the first cell whose begin is >= range.begin.
  // For a node's range these cells tile the range exactly (node boundaries
  // are leaf boundaries); a range beginning or ending inside a cell skips
  // that partial cell. Requires the base leaf partition to be
  // materialised (the engine does this before evaluation starts).
  void AppendLeavesIn(const TextRange& range, std::vector<Leaf>* out) const;

 private:
  // Appends this view's own cuts inside [range.begin, range.end], sorted,
  // draining the overlays queued by AddOverlay first.
  void AppendOwnCutsIn(const TextRange& range, std::vector<size_t>* out) const;

  const KyGoddag* base_;
  const OverlayView* parent_ = nullptr;
  // Sorted by id_begin (allocator blocks are disjoint, so this is a total
  // order).
  std::vector<std::shared_ptr<const GoddagOverlay>> overlays_;
  // The element boundaries of this view's own overlays, sorted and unique;
  // guarded by cuts_mu_ (AddOverlay needs no guard — only the owning
  // evaluation mutates the view, never while workers read it). queued_
  // holds overlays registered since the last drain (kept alive by
  // overlays_).
  mutable std::mutex cuts_mu_;
  mutable std::vector<size_t> cuts_;
  mutable std::vector<const GoddagOverlay*> queued_;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_OVERLAY_H_
