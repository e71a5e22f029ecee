// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/overlay.h"

#include <algorithm>

namespace mhx::goddag {

namespace {
// Ids run from kOverlayIdBit to kOverlayIdBit | kMaxOverlayOffset - 1;
// kInvalidNode (all bits set) stays unreachable.
constexpr uint32_t kMaxOverlayOffset = 0x7FFFFFFFu;
}  // namespace

NodeId OverlayIdAllocator::Allocate(size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  // First fit: the lowest released hole that holds `count`. freed_ is
  // offset-ordered and holes are coalesced on release, so holes sandwiched
  // under live blocks — many long-lived engines churning in one process —
  // are recycled instead of waiting for a tail rewind that may never come.
  for (auto it = freed_.begin(); it != freed_.end(); ++it) {
    if (static_cast<uint64_t>(it->second) < count) continue;
    const uint32_t offset = it->first;
    const uint32_t remainder = it->second - static_cast<uint32_t>(count);
    freed_.erase(it);
    if (remainder > 0) {
      freed_.emplace(offset + static_cast<uint32_t>(count), remainder);
    }
    outstanding_ += count;
    return kOverlayIdBit | offset;
  }
  if (count > kMaxOverlayOffset - next_) return kInvalidNode;
  NodeId begin = kOverlayIdBit | next_;
  next_ += static_cast<uint32_t>(count);
  outstanding_ += count;
  return begin;
}

void OverlayIdAllocator::Release(NodeId begin, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ -= count;
  if (outstanding_ == 0) {
    // Fully drained — the steady state between queries when nothing is
    // kept: reset wholesale.
    next_ = 0;
    freed_.clear();
    return;
  }
  // Insert the hole, coalescing with adjacent holes so first-fit sees one
  // big hole rather than fragments no single block fits into.
  uint32_t offset = begin & ~kOverlayIdBit;
  uint32_t length = static_cast<uint32_t>(count);
  auto after = freed_.upper_bound(offset);
  if (after != freed_.begin()) {
    auto before = std::prev(after);
    if (before->first + before->second == offset) {
      offset = before->first;
      length += before->second;
      freed_.erase(before);
    }
  }
  if (after != freed_.end() && after->first == offset + length) {
    length += after->second;
    freed_.erase(after);
  }
  freed_[offset] = length;
  // Rewind the cursor over the contiguous released suffix, so churn above
  // a long-lived kept block keeps reusing the same ids instead of walking
  // off the end of the namespace.
  while (!freed_.empty()) {
    auto last = std::prev(freed_.end());
    if (last->first + last->second != next_) break;
    next_ = last->first;
    freed_.erase(last);
  }
}

StatusOr<std::shared_ptr<const GoddagOverlay>> GoddagOverlay::Create(
    const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
    const std::string& name, std::vector<VirtualElement> elements) {
  const size_t n = base->base_text().size();
  MHX_RETURN_IF_ERROR(SortAndValidateVirtualElements(n, &elements));

  const size_t count = elements.size() + 1;  // + auto-created root
  NodeId id_begin = ids->Allocate(count);
  if (id_begin == kInvalidNode) {
    return ResourceExhaustedError(
        "overlay id namespace exhausted (2^31 overlay nodes alive)");
  }
  auto overlay = std::shared_ptr<GoddagOverlay>(
      new GoddagOverlay(std::move(ids), id_begin));
  overlay->arena_.resize(count);

  GNode& root = overlay->arena_[0];
  root.kind = GNodeKind::kElement;
  root.hierarchy = kOverlayHierarchy;
  root.name = name;
  root.range = TextRange(0, n);
  root.parent = base->root();

  // Elements arrive in document order, so a single stack pass builds the
  // tree (exactly as KyGoddag::AddVirtualHierarchy does for its arena).
  std::vector<NodeId> stack = {id_begin};
  NodeId next = id_begin + 1;
  for (VirtualElement& e : elements) {
    while (stack.size() > 1 &&
           !overlay->node(stack.back()).range.Contains(e.range)) {
      stack.pop_back();
    }
    GNode& node = overlay->arena_[next - id_begin];
    node.kind = GNodeKind::kElement;
    node.hierarchy = kOverlayHierarchy;
    node.name = std::move(e.name);
    node.attributes = std::move(e.attributes);
    node.range = e.range;
    node.parent = stack.back();
    overlay->arena_[stack.back() - id_begin].children.push_back(next);
    stack.push_back(next);
    ++next;
  }
  return std::shared_ptr<const GoddagOverlay>(std::move(overlay));
}

GoddagOverlay::~GoddagOverlay() { ids_->Release(id_begin_, arena_.size()); }

void OverlayView::AddOverlay(std::shared_ptr<const GoddagOverlay> overlay) {
  auto it = std::upper_bound(
      overlays_.begin(), overlays_.end(), overlay->id_begin(),
      [](NodeId begin, const std::shared_ptr<const GoddagOverlay>& o) {
        return begin < o->id_begin();
      });
  queued_.push_back(overlay.get());
  overlays_.insert(it, std::move(overlay));
}

void OverlayView::AppendOwnCutsIn(const TextRange& range,
                                  std::vector<size_t>* out) const {
  // Workers sharing the view may race the first drain; in the steady state
  // this is an empty-queue check under an uncontended mutex. AddOverlay
  // (owner only, never concurrent with readers) just queues.
  std::lock_guard<std::mutex> lock(cuts_mu_);
  if (!queued_.empty()) {
    // One sort of the new boundaries plus one merge into the sorted list,
    // however many overlays queued up since the last drain. The plumbing
    // root spans the whole text, so its 0/n cuts are skipped.
    const size_t old_size = cuts_.size();
    for (const GoddagOverlay* overlay : queued_) {
      for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
           ++id) {
        cuts_.push_back(overlay->node(id).range.begin);
        cuts_.push_back(overlay->node(id).range.end);
      }
    }
    queued_.clear();
    std::sort(cuts_.begin() + old_size, cuts_.end());
    std::inplace_merge(cuts_.begin(), cuts_.begin() + old_size, cuts_.end());
    cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
  }
  auto lo = std::lower_bound(cuts_.cbegin(), cuts_.cend(), range.begin);
  auto hi = std::upper_bound(lo, cuts_.cend(), range.end);
  out->insert(out->end(), lo, hi);
}

void OverlayView::AppendLeavesIn(const TextRange& range,
                                 std::vector<Leaf>* out) const {
  const std::vector<Leaf>& cells = base_->leaves();
  if (range.empty() || cells.empty()) return;
  // The overlay cuts inside [begin, end] visible to this view: its own and
  // every ancestor's.
  std::vector<size_t> cuts;
  for (const OverlayView* view = this; view != nullptr;
       view = view->parent_) {
    if (view->has_overlays()) view->AppendOwnCutsIn(range, &cuts);
  }
  std::sort(cuts.begin(), cuts.end());

  // The merged partition's boundaries inside [begin, end] are the base
  // boundaries there (every cell's begin, plus the text end) united with
  // the cuts; each pair of consecutive ones is a cell wholly inside the
  // range, and every such cell is one of those pairs. Merge the two sorted
  // streams, skipping positions equal to the previous one.
  size_t next = static_cast<size_t>(
      std::lower_bound(cells.begin(), cells.end(), range.begin,
                       [](const Leaf& leaf, size_t pos) {
                         return leaf.range.begin < pos;
                       }) -
      cells.begin());
  auto base_boundary = [&cells](size_t i) {
    return i < cells.size() ? cells[i].range.begin : cells.back().range.end;
  };
  auto cut = cuts.cbegin();
  bool started = false;
  size_t prev = 0;
  while (true) {
    const bool base_left =
        next <= cells.size() && base_boundary(next) <= range.end;
    const bool cut_left = cut != cuts.cend();
    if (!base_left && !cut_left) break;
    size_t pos;
    if (base_left && (!cut_left || base_boundary(next) <= *cut)) {
      pos = base_boundary(next++);
    } else {
      pos = *cut++;
    }
    if (started && pos > prev) out->push_back(Leaf{TextRange(prev, pos)});
    prev = pos;
    started = true;
  }
}

const GoddagOverlay* OverlayView::overlay_of(NodeId id) const {
  // The overlay whose id_begin is the last <= id; blocks are disjoint, so
  // either it contains the id or nothing does. Ids not registered here may
  // belong to the view this one was forked from.
  auto it = std::upper_bound(
      overlays_.begin(), overlays_.end(), id,
      [](NodeId value, const std::shared_ptr<const GoddagOverlay>& o) {
        return value < o->id_begin();
      });
  if (it != overlays_.begin()) {
    const GoddagOverlay* overlay = (it - 1)->get();
    if (overlay->Contains(id)) return overlay;
  }
  return parent_ != nullptr ? parent_->overlay_of(id) : nullptr;
}

std::string OverlayView::NodeString(NodeId id) const {
  const TextRange& r = node(id).range;
  return base_->base_text().substr(r.begin, r.length());
}

}  // namespace mhx::goddag
