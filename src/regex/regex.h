// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The regular-expression substrate behind the XQuery matches() and
// analyze-string() built-ins: a Pike-VM style NFA simulation (linear time
// even on the (a|a)*b pathologies benchmarked in bench_regex.cc) over the
// XPath/XQuery regex dialect subset — literals, '.', classes, alternation,
// grouping with captures, the ^/$ anchors, and the ?/*/+/{m,n} quantifiers.
//
// Compile parses the pattern into a small AST, then flattens it into a
// bytecode program (kChar/kClass/kSplit/kJmp/kSave/kMatch plus the two
// assertions). The matcher advances every live NFA thread one input
// character at a time, deduplicating threads by program counter, so run time
// is O(|text| * |program|) regardless of the pattern. Submatches ride along
// as per-thread save slots; FindAll selects leftmost-longest (POSIX-style)
// rather than leftmost-first matches.
//
// Compile also extracts the pattern's required literal: the longest run of
// literal characters every match must contain (see required_literal()).
// Every search first checks that the text still holds it and answers "no
// match" without running the VM when it does not — most words a query
// filters never reach the VM.

#ifndef MHX_REGEX_REGEX_H_
#define MHX_REGEX_REGEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "base/text_range.h"

namespace mhx::regex {

namespace internal {

// One instruction of the compiled NFA program.
struct Inst {
  enum class Op : uint8_t {
    kChar,         // match the single character `ch`
    kClass,        // match any character in classes[arg]
    kAnyChar,      // match any character except '\n'
    kSplit,        // fork: continue at both next_a (preferred) and next_b
    kJmp,          // continue at next_a
    kSave,         // store the current position in save slot `arg`
    kAssertStart,  // succeed only at position 0
    kAssertEnd,    // succeed only at end of text
    kMatch,        // the whole pattern matched
  };
  Op op;
  char ch = 0;
  uint32_t arg = 0;
  uint32_t next_a = 0;
  uint32_t next_b = 0;
};

// A 256-bit character-set bitmap.
using CharClass = std::array<uint64_t, 4>;

// "Position not recorded" marker for capture save slots.
inline constexpr size_t kUnsetPos = static_cast<size_t>(-1);

// Copy-on-write storage for the per-thread capture save slots. NFA threads
// used to carry their own std::vector<size_t>, copied wholesale on every
// kSplit — one allocation per forked thread per input character in
// capture-heavy patterns. Here a thread holds a refcounted handle to a slot
// block instead: forks bump a refcount, and only a kSave landing on a
// shared block pays a clone. Freed blocks go to a free list and are reused
// with their vector capacity intact, so a warmed-up FindAll scan allocates
// nothing at all.
class SlotPool {
 public:
  // Prepares the pool for a Search over `nslots`-wide threads. Any blocks
  // still referenced by the previous Search's abandoned threads (early
  // returns leave some behind deliberately) are reclaimed here.
  void Reset(size_t nslots) {
    nslots_ = nslots;
    free_.clear();
    free_.reserve(blocks_.size());
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i].refs = 0;
      free_.push_back(static_cast<uint32_t>(i));
    }
  }

  // A fresh block with every slot kUnsetPos, refcount 1.
  uint32_t Alloc() {
    const uint32_t handle = TakeBlock();
    blocks_[handle].values.assign(nslots_, kUnsetPos);
    return handle;
  }

  void Ref(uint32_t handle) { ++blocks_[handle].refs; }

  void Unref(uint32_t handle) {
    if (--blocks_[handle].refs == 0) free_.push_back(handle);
  }

  // Writes `value` into `slot`, cloning first when the block is shared.
  // Returns the handle holding the write (the original when exclusive).
  uint32_t SetSlot(uint32_t handle, uint32_t slot, size_t value) {
    if (blocks_[handle].refs == 1) {
      blocks_[handle].values[slot] = value;
      return handle;
    }
    --blocks_[handle].refs;
    const uint32_t clone = TakeBlock();
    // Index, not reference: TakeBlock may have grown blocks_.
    blocks_[clone].values = blocks_[handle].values;
    blocks_[clone].values[slot] = value;
    return clone;
  }

  const std::vector<size_t>& values(uint32_t handle) const {
    return blocks_[handle].values;
  }

  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::vector<size_t> values;
    uint32_t refs = 0;
  };

  uint32_t TakeBlock() {
    if (!free_.empty()) {
      const uint32_t handle = free_.back();
      free_.pop_back();
      blocks_[handle].refs = 1;
      return handle;
    }
    blocks_.emplace_back();
    blocks_.back().refs = 1;
    return static_cast<uint32_t>(blocks_.size() - 1);
  }

  std::vector<Block> blocks_;
  std::vector<uint32_t> free_;
  size_t nslots_ = 0;
};

// One step's worth of runnable threads, in priority order. `saves` holds
// SlotPool handles; each listed thread owns one reference.
struct ThreadList {
  std::vector<uint32_t> pcs;
  std::vector<uint32_t> saves;
  void Clear() {
    pcs.clear();
    saves.clear();
  }
  bool empty() const { return pcs.empty(); }
};

// An epsilon-closure work item: a pc plus a SlotPool handle the pending
// thread owns one reference on.
struct PendingThread {
  uint32_t pc;
  uint32_t saves;
};

// Reusable per-scan state. FindAll shares one across its per-match Search
// calls so the visited-marks array, the closure work stack, and the
// save-slot blocks are allocated once per scan (the generation counter and
// SlotPool::Reset take care of the implicit clearing).
struct SearchScratch {
  std::vector<uint64_t> mark;
  ThreadList clist, nlist;
  SlotPool slots;
  std::vector<PendingThread> closure_stack;
  uint64_t generation = 0;
};

}  // namespace internal

// A compiled pattern. Immutable after Compile, so one Regex may be matched
// from any number of threads (each match carries its own thread state).
class Regex {
 public:
  struct Match {
    // Whole-match range over the searched text.
    TextRange range;
    // Capture-group ranges, 1-indexed group k at groups[k - 1]; unmatched
    // groups are empty ranges at position 0.
    std::vector<TextRange> groups;
  };

  // Compiles `pattern` or returns InvalidArgument describing the syntax
  // error.
  static StatusOr<Regex> Compile(std::string_view pattern);

  Regex(Regex&&) = default;
  Regex& operator=(Regex&&) = default;

  // All non-overlapping matches, leftmost-longest, in text order.
  std::vector<Match> FindAll(std::string_view text) const;

  // True when some substring of `text` matches.
  bool ContainsMatch(std::string_view text) const;

  // True when the whole of `text` matches.
  bool FullMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }
  size_t group_count() const { return group_count_; }
  // Program length — the per-character work bound of the Pike VM.
  size_t program_size() const { return program_.size(); }
  // A string every match contains (empty when nothing is required): the
  // longest run of adjacent characters that a concatenation must match,
  // looking through groups and mandatory repeats; alternations, classes,
  // '.' and optional repeats contribute nothing.
  const std::string& required_literal() const { return required_literal_; }

 private:
  struct SearchResult {
    size_t begin = 0;
    size_t end = 0;
    std::vector<size_t> saves;
  };

  explicit Regex(std::string pattern) : pattern_(std::move(pattern)) {}

  // The prefilter: false when text[from..] lacks the required literal, so
  // no match can start at or after `from`.
  bool ContainsRequiredLiteral(std::string_view text, size_t from) const;

  // Runs the VM over text[from..). `anchored` admits only threads starting
  // at `from`; `full` admits only matches ending at text.size(). Returns
  // false when no match exists. With `first_only` the search stops at the
  // first completed match (existence tests); otherwise it returns the
  // leftmost-longest one. `scratch` may be reused across calls.
  bool Search(std::string_view text, size_t from, bool anchored, bool full,
              bool first_only, internal::SearchScratch* scratch,
              SearchResult* out) const;

  std::string pattern_;
  std::vector<internal::Inst> program_;
  std::vector<internal::CharClass> classes_;
  size_t group_count_ = 0;
  std::string required_literal_;

  friend class RegexCompiler;
};

}  // namespace mhx::regex

#endif  // MHX_REGEX_REGEX_H_
