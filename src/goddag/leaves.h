// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// TieredLeafPartition: the shared leaf partition behind KyGoddag::leaves(),
// stored as a tiered vector (a sorted sequence of bounded chunks) so a
// persistent boundary splice costs O(log chunks + chunk) instead of the
// O(partition) single-vector insert the E10 ablation pinned. The partition
// is still logically the flat, text-ordered list of leaf cells; Flatten()
// materialises (and caches) that flat view for the read API, which stays
// `const std::vector<Leaf>&`.
//
// Thread-safety: unsynchronized. KyGoddag mutates its partition only on the
// writer path (document build, MVCC clone-and-commit) and publishes it to
// readers via an immutable DocumentSnapshot (goddag/snapshot.h); readers
// only ever call Flatten() on a partition that is no longer mutated.

#ifndef MHX_GODDAG_LEAVES_H_
#define MHX_GODDAG_LEAVES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "base/text_range.h"

namespace mhx::goddag {

// One cell of the shared leaf partition.
struct Leaf {
  TextRange range;
};

class TieredLeafPartition {
 public:
  // Copyable: a KyGoddag clone (the MVCC writer path) carries its partition
  // over so the clone's own splices start incremental, not from a rebuild.
  TieredLeafPartition() = default;
  TieredLeafPartition(const TieredLeafPartition&) = default;
  TieredLeafPartition& operator=(const TieredLeafPartition&) = default;
  TieredLeafPartition(TieredLeafPartition&&) = default;
  TieredLeafPartition& operator=(TieredLeafPartition&&) = default;

  // Rebuilds the partition from the sorted boundary offsets (the keys of
  // KyGoddag's refcount map). Fewer than two boundaries means an empty base
  // text and an empty partition.
  void AssignFromBoundaries(const std::map<size_t, uint32_t>& boundary_refs);

  // Adopts an already-flat, text-ordered, gap-free partition wholesale: the
  // chunks are carved out of `flat` and the flat view itself is cached, so
  // no per-boundary work happens. The arena loader uses this to stand the
  // partition up straight from validated on-disk boundaries.
  void AssignFlat(std::vector<Leaf> flat);

  // Splits the leaf strictly containing `pos` in two at `pos`. Precondition
  // (guaranteed by the caller's refcount map): `pos` is strictly inside an
  // existing leaf — never 0, the text size, or an existing boundary.
  void InsertBoundary(size_t pos);

  // Merges the leaf ending at `pos` with its successor. Precondition: `pos`
  // is an existing interior boundary (so both the leaf and its successor
  // exist).
  void EraseBoundary(size_t pos);

  // The flat text-ordered partition; rebuilt lazily after mutations and
  // cached, so repeated reads between mutations are free.
  const std::vector<Leaf>& Flatten() const;

  void Clear();

  size_t leaf_count() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Exposed for the tier-sizing tests.
  size_t chunk_count() const { return chunks_.size(); }

 private:
  // Chunks are split when they grow past 2x this, keeping every splice
  // O(log chunks) to locate + O(chunk) to shift.
  static constexpr size_t kTargetChunkCells = 256;

  void SplitChunkIfOversized(size_t chunk_index);

  // Non-empty chunks in text order; chunk_ends_[i] caches
  // chunks_[i].back().range.end for the binary search.
  std::vector<std::vector<Leaf>> chunks_;
  std::vector<size_t> chunk_ends_;
  size_t size_ = 0;
  // Cached flat view for Flatten().
  mutable std::vector<Leaf> flat_;
  mutable bool flat_dirty_ = false;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_LEAVES_H_
