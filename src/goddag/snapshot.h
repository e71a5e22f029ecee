// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// DocumentSnapshot: one immutable published version of a document — the
// KyGoddag (node table, hierarchy arcs, materialised leaf partition) plus a
// build-once RangeIndex — the unit of the MVCC protocol described in
// CONCURRENCY.md. Readers pin the current snapshot (a shared_ptr copy under
// the document's epoch mutex) for an entire evaluation; writers clone the
// head goddag copy-on-write, apply their mutations off to the side, and
// publish a successor snapshot by swapping the document's pointer. No
// reader ever blocks on a writer: pin and publish are both O(1) pointer
// operations, and a snapshot — goddag and index — is never mutated after
// publication.
//
// Retirement: a snapshot dies when its last reference drops — the document
// repointing to a successor, the last pinned evaluation returning, or the
// last KeptTemporaries handle releasing, whichever comes last. live_count()
// exposes the process-wide population for the `mhx_goddag_live_snapshots`
// gauge and the retirement tests.
//
// Index discipline: the writer path prebuilds the RangeIndex before
// publishing (Create with prebuild_index = true), so readers switching to a
// new version never pay a rebuild — `index_rebuilds` stays flat across
// commits. The initial Build()-time snapshot defers the index to the first
// EnsureIndex() call (the engine's first evaluation), preserving lazy
// startup. EnsureIndex() is thread-safe (std::call_once) and reports
// whether the calling thread actually built, which is how the engine keeps
// its per-engine rebuild accounting exact.
//
// Thread-safety: every method is safe to call concurrently after Create
// returns. Nothing mutates a published snapshot's goddag: every document
// mutation is a Writer::Commit on a private clone.

#ifndef MHX_GODDAG_SNAPSHOT_H_
#define MHX_GODDAG_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "goddag/stats.h"

namespace mhx::goddag {

class DocumentSnapshot {
 public:
  // Publishes `goddag` as version `version`: forces the leaf partition (so
  // readers never trigger the lazy rebuild) and, when `prebuild_index`,
  // builds the RangeIndex eagerly — the writer pays, readers never do.
  // `goddag` must be quiesced: no concurrent access during Create.
  static std::shared_ptr<const DocumentSnapshot> Create(
      std::shared_ptr<const KyGoddag> goddag, uint64_t version,
      bool prebuild_index);

  // Publishes a snapshot whose index and stats were materialised elsewhere
  // — the mmap-adoption path of goddag/persist.h, where both borrow arrays
  // straight out of an on-disk arena. `keepalive` is retained for the
  // snapshot's lifetime and keeps that backing storage (the mapping or the
  // loaded buffer) valid; EnsureIndex()/EnsureStats() become no-ops that
  // never rebuild, so `index_rebuilds` stays flat for mapped loads exactly
  // as it does for writer-prebuilt commits. `goddag` must be quiesced.
  static std::shared_ptr<const DocumentSnapshot> Adopt(
      std::shared_ptr<const KyGoddag> goddag, uint64_t version,
      std::unique_ptr<const RangeIndex> index,
      std::unique_ptr<const SnapshotStats> stats,
      std::shared_ptr<const void> keepalive);

  ~DocumentSnapshot();

  DocumentSnapshot(const DocumentSnapshot&) = delete;
  DocumentSnapshot& operator=(const DocumentSnapshot&) = delete;

  const KyGoddag& goddag() const { return *goddag_; }
  const std::shared_ptr<const KyGoddag>& shared_goddag() const {
    return goddag_;
  }

  // Monotonic document version, starting at 1 for Builder::Build's snapshot
  // and +1 per Writer::Commit.
  uint64_t version() const { return version_; }

  // Builds the RangeIndex if no thread has yet (thread-safe, build-once).
  // Returns true iff THIS call performed the build — the engine's rebuild
  // accounting counts exactly those.
  bool EnsureIndex() const;

  // The snapshot's RangeIndex, building it on first use (see EnsureIndex).
  const RangeIndex& index() const;

  // Builds the SnapshotStats if no thread has yet (thread-safe, build-once,
  // same discipline as EnsureIndex). Stats are a pure function of the
  // snapshot's goddag: they follow this version, never the document head,
  // so a planner reading them during a concurrent Writer::Commit sees
  // exactly the statistics of the version it pinned.
  void EnsureStats() const;

  // The snapshot's statistics block, building it on first use.
  const SnapshotStats& stats() const;

  // Snapshots currently alive in the process (relaxed; exact once traffic
  // quiesces). Exported as the `mhx_goddag_live_snapshots` gauge.
  static size_t live_count();

 private:
  DocumentSnapshot(std::shared_ptr<const KyGoddag> goddag, uint64_t version);

  const std::shared_ptr<const KyGoddag> goddag_;
  const uint64_t version_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<const RangeIndex> index_;
  mutable std::once_flag stats_once_;
  mutable std::unique_ptr<const SnapshotStats> stats_;
  // Backing storage for adopted (mmap-loaded) snapshots; null otherwise.
  // Releasing a borrowing ArrayRef never touches the borrowed bytes, so
  // teardown order relative to index_/stats_ is immaterial — the mapping
  // just must live while any accessor can still run, which pinning the
  // snapshot guarantees.
  std::shared_ptr<const void> keepalive_;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_SNAPSHOT_H_
