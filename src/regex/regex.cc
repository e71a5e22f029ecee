// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "regex/regex.h"

#include <algorithm>
#include <cstddef>

#include "base/status_macros.h"

namespace mhx::regex {

namespace {

using internal::CharClass;
using internal::Inst;

constexpr size_t kUnset = internal::kUnsetPos;
// Bounded repetition is compiled by fragment copying; cap it (and the total
// program size) so hostile patterns cannot allocate without limit.
constexpr uint32_t kMaxBoundedRepeat = 512;
constexpr size_t kMaxProgramSize = 1 << 16;
// Parser (and therefore compiler/destructor) recursion is proportional to
// group nesting; cap it so hostile patterns error instead of overflowing
// the stack.
constexpr int kMaxGroupDepth = 200;

void ClassAdd(CharClass* cls, unsigned char c) {
  (*cls)[c >> 6] |= uint64_t{1} << (c & 63);
}

void ClassAddRange(CharClass* cls, unsigned char lo, unsigned char hi) {
  for (unsigned c = lo; c <= hi; ++c) ClassAdd(cls, static_cast<char>(c));
}

bool ClassHas(const CharClass& cls, unsigned char c) {
  return (cls[c >> 6] >> (c & 63)) & 1;
}

// The perl-style class escapes shared by atoms and bracket expressions.
bool AddEscapeClass(char e, CharClass* cls) {
  CharClass base{};
  switch (e) {
    case 'd':
    case 'D':
      ClassAddRange(&base, '0', '9');
      break;
    case 'w':
    case 'W':
      ClassAddRange(&base, 'a', 'z');
      ClassAddRange(&base, 'A', 'Z');
      ClassAddRange(&base, '0', '9');
      ClassAdd(&base, '_');
      break;
    case 's':
    case 'S':
      for (char c : {' ', '\t', '\n', '\r', '\f', '\v'}) ClassAdd(&base, c);
      break;
    default:
      return false;
  }
  if (e == 'D' || e == 'W' || e == 'S') {
    for (auto& word : base) word = ~word;
  }
  for (size_t i = 0; i < base.size(); ++i) (*cls)[i] |= base[i];
  return true;
}

// --- Pattern AST -----------------------------------------------------------

struct RNode {
  enum class Kind {
    kEmpty,
    kChar,
    kAny,
    kClass,
    kConcat,
    kAlt,
    kRepeat,
    kGroup,
    kAnchorStart,
    kAnchorEnd,
  };
  Kind kind = Kind::kEmpty;
  char ch = 0;
  uint32_t class_index = 0;
  uint32_t group = 0;                // kGroup: 1-based capture index
  uint32_t min = 0, max = 0;         // kRepeat; max == kNoUpperBound for {m,}
  std::vector<RNode> children;

  static constexpr uint32_t kNoUpperBound = static_cast<uint32_t>(-1);
};

// Recursive-descent pattern parser. Every error is anchored to a pattern
// offset so Compile callers can report precise syntax diagnostics.
class PatternParser {
 public:
  PatternParser(std::string_view pattern, std::vector<CharClass>* classes)
      : p_(pattern), classes_(classes) {}

  StatusOr<RNode> Parse() {
    MHX_ASSIGN_OR_RETURN(RNode root, ParseAlternation());
    if (pos_ != p_.size()) {
      return Error("unmatched ')'");
    }
    return root;
  }

  uint32_t group_count() const { return group_count_; }

 private:
  Status Error(const std::string& what) const {
    // Quote at most the head of a hostile-sized pattern.
    std::string shown(p_.substr(0, 128));
    if (p_.size() > 128) shown += "...";
    return InvalidArgumentError("regex syntax error at offset " +
                                std::to_string(pos_) + " in '" + shown +
                                "': " + what);
  }

  bool AtEnd() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }

  StatusOr<RNode> ParseAlternation() {
    RNode alt;
    alt.kind = RNode::Kind::kAlt;
    MHX_ASSIGN_OR_RETURN(RNode first, ParseConcat());
    alt.children.push_back(std::move(first));
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      MHX_ASSIGN_OR_RETURN(RNode next, ParseConcat());
      alt.children.push_back(std::move(next));
    }
    if (alt.children.size() == 1) return std::move(alt.children.front());
    return alt;
  }

  StatusOr<RNode> ParseConcat() {
    RNode cat;
    cat.kind = RNode::Kind::kConcat;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      MHX_ASSIGN_OR_RETURN(RNode item, ParseRepeat());
      cat.children.push_back(std::move(item));
    }
    if (cat.children.empty()) {
      cat.kind = RNode::Kind::kEmpty;
      cat.children.clear();
    } else if (cat.children.size() == 1) {
      return std::move(cat.children.front());
    }
    return cat;
  }

  StatusOr<RNode> ParseRepeat() {
    MHX_ASSIGN_OR_RETURN(RNode atom, ParseAtom());
    bool quantified = false;
    while (!AtEnd()) {
      char c = Peek();
      uint32_t min = 0, max = 0;
      if (c == '*') {
        min = 0;
        max = RNode::kNoUpperBound;
        ++pos_;
      } else if (c == '+') {
        min = 1;
        max = RNode::kNoUpperBound;
        ++pos_;
      } else if (c == '?') {
        min = 0;
        max = 1;
        ++pos_;
      } else if (c == '{') {
        MHX_RETURN_IF_ERROR(ParseBounds(&min, &max));
      } else {
        break;
      }
      if (quantified) return Error("double quantifier");
      quantified = true;
      RNode rep;
      rep.kind = RNode::Kind::kRepeat;
      rep.min = min;
      rep.max = max;
      rep.children.push_back(std::move(atom));
      atom = std::move(rep);
    }
    return atom;
  }

  Status ParseBounds(uint32_t* min, uint32_t* max) {
    ++pos_;  // '{'
    MHX_ASSIGN_OR_RETURN(*min, ParseBoundNumber());
    if (!AtEnd() && Peek() == ',') {
      ++pos_;
      if (!AtEnd() && Peek() == '}') {
        *max = RNode::kNoUpperBound;
      } else {
        MHX_ASSIGN_OR_RETURN(*max, ParseBoundNumber());
      }
    } else {
      *max = *min;
    }
    if (AtEnd() || Peek() != '}') return Error("expected '}' in bounds");
    ++pos_;
    if (*max != RNode::kNoUpperBound && *max < *min) {
      return Error("bounds {m,n} with m > n");
    }
    return OkStatus();
  }

  StatusOr<uint32_t> ParseBoundNumber() {
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("expected number in bounds");
    }
    uint32_t value = 0;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      value = value * 10 + static_cast<uint32_t>(Peek() - '0');
      if (value > kMaxBoundedRepeat) {
        return Error("repetition bound exceeds " +
                     std::to_string(kMaxBoundedRepeat));
      }
      ++pos_;
    }
    return value;
  }

  StatusOr<RNode> ParseAtom() {
    RNode node;
    char c = Peek();
    switch (c) {
      case '(': {
        if (depth_ >= kMaxGroupDepth) {
          return Error("groups nested deeper than " +
                       std::to_string(kMaxGroupDepth));
        }
        ++depth_;
        ++pos_;
        uint32_t group = ++group_count_;
        auto parsed = ParseAlternation();
        --depth_;
        if (!parsed.ok()) return parsed.status();
        RNode sub = std::move(parsed).value();
        if (AtEnd() || Peek() != ')') return Error("unclosed group");
        ++pos_;
        node.kind = RNode::Kind::kGroup;
        node.group = group;
        node.children.push_back(std::move(sub));
        return node;
      }
      case '[':
        return ParseClass();
      case '.':
        ++pos_;
        node.kind = RNode::Kind::kAny;
        return node;
      case '^':
        ++pos_;
        node.kind = RNode::Kind::kAnchorStart;
        return node;
      case '$':
        ++pos_;
        node.kind = RNode::Kind::kAnchorEnd;
        return node;
      case '*':
      case '+':
      case '?':
      case '{':
        return Error(std::string("nothing to repeat before '") + c + "'");
      case '\\': {
        if (pos_ + 1 >= p_.size()) return Error("trailing backslash");
        char e = p_[pos_ + 1];
        pos_ += 2;
        CharClass cls{};
        if (AddEscapeClass(e, &cls)) {
          node.kind = RNode::Kind::kClass;
          node.class_index = static_cast<uint32_t>(classes_->size());
          classes_->push_back(cls);
          return node;
        }
        node.kind = RNode::Kind::kChar;
        node.ch = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        return node;
      }
      default:
        ++pos_;
        node.kind = RNode::Kind::kChar;
        node.ch = c;
        return node;
    }
  }

  StatusOr<RNode> ParseClass() {
    ++pos_;  // '['
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    CharClass cls{};
    bool first = true;
    while (true) {
      if (AtEnd()) return Error("unterminated character class");
      char c = Peek();
      if (c == ']' && !first) break;
      first = false;
      ++pos_;
      if (c == '\\') {
        if (AtEnd()) return Error("trailing backslash in class");
        char e = Peek();
        ++pos_;
        if (AddEscapeClass(e, &cls)) continue;
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
      }
      // Range `c-hi` unless the '-' is the trailing literal.
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        char hi = p_[pos_ + 1];
        pos_ += 2;
        if (hi == '\\') {
          if (AtEnd()) return Error("trailing backslash in class");
          char e = Peek();
          ++pos_;
          // Multi-character escapes cannot bound a range.
          if (e == 'd' || e == 'D' || e == 'w' || e == 'W' || e == 's' ||
              e == 'S') {
            return Error(std::string("class escape \\") + e +
                         " cannot end a range");
          }
          hi = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        }
        if (static_cast<unsigned char>(c) > static_cast<unsigned char>(hi)) {
          return Error("invalid class range");
        }
        ClassAddRange(&cls, static_cast<unsigned char>(c),
                      static_cast<unsigned char>(hi));
        continue;
      }
      ClassAdd(&cls, static_cast<unsigned char>(c));
    }
    ++pos_;  // ']'
    if (negate) {
      for (auto& word : cls) word = ~word;
    }
    RNode node;
    node.kind = RNode::Kind::kClass;
    node.class_index = static_cast<uint32_t>(classes_->size());
    classes_->push_back(cls);
    return node;
  }

  std::string_view p_;
  size_t pos_ = 0;
  uint32_t group_count_ = 0;
  int depth_ = 0;
  std::vector<CharClass>* classes_;
};

// What the literal analysis knows about the strings a subpattern matches.
struct LiteralInfo {
  // The subpattern matches exactly `text` and nothing else.
  bool exact = false;
  std::string text;
  // A string every match contains (the longest one found).
  std::string required;
};

void KeepLonger(std::string* best, const std::string& candidate) {
  if (candidate.size() > best->size()) *best = candidate;
}

// Bottom-up required-literal extraction. Sound because a concatenation's
// match is its children's matches laid end to end (anchors match the empty
// string), so adjacent exact children form one contiguous literal, and
// every match of a group or of a repeat with min >= 1 contains a match of
// its body. Exact text never outgrows the compiled program: each of its
// characters is one emitted kChar.
LiteralInfo AnalyzeLiterals(const RNode& n) {
  LiteralInfo info;
  switch (n.kind) {
    case RNode::Kind::kEmpty:
    case RNode::Kind::kAnchorStart:
    case RNode::Kind::kAnchorEnd:
      info.exact = true;
      return info;
    case RNode::Kind::kChar:
      info.exact = true;
      info.text = info.required = std::string(1, n.ch);
      return info;
    case RNode::Kind::kGroup:
      return AnalyzeLiterals(n.children.front());
    case RNode::Kind::kConcat: {
      info.exact = true;
      std::string run;
      for (const RNode& child : n.children) {
        LiteralInfo part = AnalyzeLiterals(child);
        if (part.exact) {
          run += part.text;
          continue;
        }
        info.exact = false;
        KeepLonger(&info.required, run);
        KeepLonger(&info.required, part.required);
        run.clear();
      }
      KeepLonger(&info.required, run);
      if (info.exact) info.text = std::move(run);
      return info;
    }
    case RNode::Kind::kRepeat: {
      if (n.min == 0) return info;
      LiteralInfo body = AnalyzeLiterals(n.children.front());
      if (body.exact && n.min == n.max) {
        info.exact = true;
        for (uint32_t i = 0; i < n.min; ++i) info.text += body.text;
        info.required = info.text;
      } else {
        info.required = std::move(body.required);
      }
      return info;
    }
    case RNode::Kind::kAny:
    case RNode::Kind::kClass:
    case RNode::Kind::kAlt:
      return info;
  }
  return info;
}

}  // namespace

// Flattens the AST into the bytecode program. Kept a friend class (not a
// free function) so it can append into the Regex being built.
class RegexCompiler {
 public:
  explicit RegexCompiler(Regex* re) : re_(re) {}

  Status CompileProgram(const RNode& root) {
    EmitSave(0);
    MHX_RETURN_IF_ERROR(Emit(root));
    EmitSave(1);
    Append(Inst{Inst::Op::kMatch});
    return OkStatus();
  }

 private:
  std::vector<Inst>& prog() { return re_->program_; }

  uint32_t Append(Inst inst) {
    prog().push_back(inst);
    return static_cast<uint32_t>(prog().size() - 1);
  }

  void EmitSave(uint32_t slot) {
    Inst inst{Inst::Op::kSave};
    inst.arg = slot;
    Append(inst);
  }

  Status Emit(const RNode& n) {
    if (prog().size() > kMaxProgramSize) {
      return InvalidArgumentError("regex program exceeds " +
                                  std::to_string(kMaxProgramSize) +
                                  " instructions");
    }
    switch (n.kind) {
      case RNode::Kind::kEmpty:
        return OkStatus();
      case RNode::Kind::kChar: {
        Inst inst{Inst::Op::kChar};
        inst.ch = n.ch;
        Append(inst);
        return OkStatus();
      }
      case RNode::Kind::kAny:
        Append(Inst{Inst::Op::kAnyChar});
        return OkStatus();
      case RNode::Kind::kClass: {
        Inst inst{Inst::Op::kClass};
        inst.arg = n.class_index;
        Append(inst);
        return OkStatus();
      }
      case RNode::Kind::kAnchorStart:
        Append(Inst{Inst::Op::kAssertStart});
        return OkStatus();
      case RNode::Kind::kAnchorEnd:
        Append(Inst{Inst::Op::kAssertEnd});
        return OkStatus();
      case RNode::Kind::kConcat:
        for (const RNode& child : n.children) {
          MHX_RETURN_IF_ERROR(Emit(child));
        }
        return OkStatus();
      case RNode::Kind::kGroup:
        EmitSave(2 * n.group);
        MHX_RETURN_IF_ERROR(Emit(n.children.front()));
        EmitSave(2 * n.group + 1);
        return OkStatus();
      case RNode::Kind::kAlt: {
        // split -> alt0, next-alt; every alternative jumps to the common end.
        std::vector<uint32_t> jumps;
        for (size_t i = 0; i < n.children.size(); ++i) {
          uint32_t split = 0;
          if (i + 1 < n.children.size()) split = Append(Inst{Inst::Op::kSplit});
          MHX_RETURN_IF_ERROR(Emit(n.children[i]));
          if (i + 1 < n.children.size()) {
            jumps.push_back(Append(Inst{Inst::Op::kJmp}));
            prog()[split].next_a = split + 1;
            prog()[split].next_b = static_cast<uint32_t>(prog().size());
          }
        }
        uint32_t end = static_cast<uint32_t>(prog().size());
        for (uint32_t j : jumps) prog()[j].next_a = end;
        return OkStatus();
      }
      case RNode::Kind::kRepeat: {
        const RNode& body = n.children.front();
        for (uint32_t i = 0; i < n.min; ++i) {
          MHX_RETURN_IF_ERROR(Emit(body));
        }
        if (n.max == RNode::kNoUpperBound) {
          // Greedy loop: split(body, out); body; jmp split.
          uint32_t split = Append(Inst{Inst::Op::kSplit});
          MHX_RETURN_IF_ERROR(Emit(body));
          Inst jmp{Inst::Op::kJmp};
          jmp.next_a = split;
          Append(jmp);
          prog()[split].next_a = split + 1;
          prog()[split].next_b = static_cast<uint32_t>(prog().size());
          return OkStatus();
        }
        // (max - min) optional greedy copies, all bailing to the common end.
        std::vector<uint32_t> splits;
        for (uint32_t i = n.min; i < n.max; ++i) {
          splits.push_back(Append(Inst{Inst::Op::kSplit}));
          MHX_RETURN_IF_ERROR(Emit(body));
        }
        uint32_t end = static_cast<uint32_t>(prog().size());
        for (uint32_t s : splits) {
          prog()[s].next_a = s + 1;
          prog()[s].next_b = end;
        }
        return OkStatus();
      }
    }
    return InternalError("unhandled regex AST node");
  }

  Regex* re_;
};

StatusOr<Regex> Regex::Compile(std::string_view pattern) {
  Regex re{std::string(pattern)};
  PatternParser parser(re.pattern_, &re.classes_);
  MHX_ASSIGN_OR_RETURN(RNode root, parser.Parse());
  re.group_count_ = parser.group_count();
  RegexCompiler compiler(&re);
  MHX_RETURN_IF_ERROR(compiler.CompileProgram(root));
  re.required_literal_ = AnalyzeLiterals(root).required;
  return re;
}

namespace {

using internal::PendingThread;
using internal::SearchScratch;
using internal::SlotPool;
using internal::ThreadList;

using Pending = PendingThread;

struct AddContext {
  const std::vector<Inst>* program;
  std::vector<uint64_t>* mark;
  SlotPool* pool;
  // Reused epsilon-closure work stack (always drained on return), so the
  // hot loop allocates nothing.
  std::vector<Pending>* stack;
  uint64_t generation;
  size_t pos;
  size_t text_size;
};

// Follows epsilon transitions from `pc`, appending every runnable (or
// matching) instruction to `list` exactly once per step. Iterative with an
// explicit work stack (popping the preferred Split branch first preserves
// the depth-first priority order), so epsilon-chain length — which grows
// with the compiled program — cannot overflow the call stack. Takes
// ownership of one reference on `start_saves`; forks share the block
// (kSplit bumps the refcount) and only a kSave on a shared block clones.
void AddThread(const AddContext& ctx, ThreadList* list, uint32_t start_pc,
               uint32_t start_saves) {
  SlotPool& pool = *ctx.pool;
  std::vector<Pending>& stack = *ctx.stack;
  stack.push_back(Pending{start_pc, start_saves});
  while (!stack.empty()) {
    Pending t = stack.back();
    stack.pop_back();
    if ((*ctx.mark)[t.pc] == ctx.generation) {
      pool.Unref(t.saves);
      continue;
    }
    (*ctx.mark)[t.pc] = ctx.generation;
    const Inst& inst = (*ctx.program)[t.pc];
    switch (inst.op) {
      case Inst::Op::kJmp:
        stack.push_back(Pending{inst.next_a, t.saves});
        break;
      case Inst::Op::kSplit:
        pool.Ref(t.saves);
        stack.push_back(Pending{inst.next_b, t.saves});
        stack.push_back(Pending{inst.next_a, t.saves});
        break;
      case Inst::Op::kSave:
        stack.push_back(
            Pending{t.pc + 1, pool.SetSlot(t.saves, inst.arg, ctx.pos)});
        break;
      case Inst::Op::kAssertStart:
        if (ctx.pos == 0) {
          stack.push_back(Pending{t.pc + 1, t.saves});
        } else {
          pool.Unref(t.saves);
        }
        break;
      case Inst::Op::kAssertEnd:
        if (ctx.pos == ctx.text_size) {
          stack.push_back(Pending{t.pc + 1, t.saves});
        } else {
          pool.Unref(t.saves);
        }
        break;
      default:
        list->pcs.push_back(t.pc);
        list->saves.push_back(t.saves);
        break;
    }
  }
}

}  // namespace

bool Regex::Search(std::string_view text, size_t from, bool anchored,
                   bool full, bool first_only,
                   internal::SearchScratch* scratch,
                   SearchResult* out) const {
  const size_t n = text.size();
  const size_t nslots = 2 * (group_count_ + 1);
  ThreadList& clist = scratch->clist;
  ThreadList& nlist = scratch->nlist;
  SlotPool& pool = scratch->slots;
  clist.Clear();
  nlist.Clear();
  // Reclaims blocks still referenced by a previous Search's abandoned
  // threads (first_only early returns leave them behind by design).
  pool.Reset(nslots);
  // Stale marks from earlier Search calls on this scratch are harmless:
  // the generation counter only ever increases.
  std::vector<uint64_t>& mark = scratch->mark;
  mark.resize(program_.size());
  uint64_t& generation = scratch->generation;

  bool have_best = false;
  SearchResult best;

  for (size_t pos = from; pos <= n; ++pos) {
    ++generation;
    // Threads in clist run at `pos`; threads they spawn run at `pos + 1` and
    // deduplicate against the *next* generation's visited marks.
    AddContext seed_ctx{&program_, &mark,         &pool, &scratch->closure_stack,
                        generation, pos,          n};
    AddContext step_ctx{&program_,      &mark,   &pool, &scratch->closure_stack,
                        generation + 1, pos + 1, n};
    // Seed a new start thread (lowest priority) while a leftmost match has
    // not been found yet; later starts could not be leftmost anymore.
    if ((pos == from || (!anchored && !have_best))) {
      AddThread(seed_ctx, &clist, 0, pool.Alloc());
    }
    if (clist.empty()) break;
    for (size_t t = 0; t < clist.pcs.size(); ++t) {
      const uint32_t pc = clist.pcs[t];
      const uint32_t saves = clist.saves[t];
      // A thread that starts after the best match's start can never improve
      // on leftmost-longest; drop it.
      if (have_best && pool.values(saves)[0] != kUnset &&
          pool.values(saves)[0] > best.begin) {
        pool.Unref(saves);
        continue;
      }
      const Inst& inst = program_[pc];
      switch (inst.op) {
        case Inst::Op::kChar:
          if (pos < n && text[pos] == inst.ch) {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kClass:
          if (pos < n &&
              ClassHas(classes_[inst.arg],
                       static_cast<unsigned char>(text[pos]))) {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kAnyChar:
          if (pos < n && text[pos] != '\n') {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kMatch: {
          if (full && pos != n) {
            pool.Unref(saves);
            break;
          }
          const std::vector<size_t>& slots = pool.values(saves);
          const size_t begin = slots[0];
          if (!have_best || begin < best.begin ||
              (begin == best.begin && pos > best.end)) {
            best.begin = begin;
            best.end = pos;
            best.saves = slots;  // copy out: best outlives the pool block
            have_best = true;
            if (first_only) {
              pool.Unref(saves);
              *out = std::move(best);
              return true;
            }
          }
          pool.Unref(saves);
          break;
        }
        default:
          pool.Unref(saves);
          break;  // epsilon ops never appear in a thread list
      }
    }
    // The next loop iteration's ++generation lands exactly on step_ctx's
    // generation, so its seed dedups against threads already advanced here.
    clist.Clear();
    std::swap(clist, nlist);
  }
  if (have_best) *out = std::move(best);
  return have_best;
}

std::vector<Regex::Match> Regex::FindAll(std::string_view text) const {
  std::vector<Match> matches;
  SearchScratch scratch;
  size_t pos = 0;
  while (pos <= text.size() && ContainsRequiredLiteral(text, pos)) {
    SearchResult r;
    if (!Search(text, pos, /*anchored=*/false, /*full=*/false,
                /*first_only=*/false, &scratch, &r)) {
      break;
    }
    Match m;
    m.range = TextRange(r.begin, r.end);
    m.groups.reserve(group_count_);
    for (size_t g = 1; g <= group_count_; ++g) {
      const size_t b = r.saves[2 * g], e = r.saves[2 * g + 1];
      m.groups.push_back(b == kUnset || e == kUnset ? TextRange(0, 0)
                                                    : TextRange(b, e));
    }
    matches.push_back(std::move(m));
    pos = r.end > r.begin ? r.end : r.end + 1;  // never loop on empty matches
  }
  return matches;
}

bool Regex::ContainsRequiredLiteral(std::string_view text,
                                    size_t from) const {
  return required_literal_.empty() ||
         text.find(required_literal_, from) != std::string_view::npos;
}

bool Regex::ContainsMatch(std::string_view text) const {
  if (!ContainsRequiredLiteral(text, 0)) return false;
  SearchScratch scratch;
  SearchResult r;
  return Search(text, 0, /*anchored=*/false, /*full=*/false,
                /*first_only=*/true, &scratch, &r);
}

bool Regex::FullMatch(std::string_view text) const {
  if (!ContainsRequiredLiteral(text, 0)) return false;
  SearchScratch scratch;
  SearchResult r;
  return Search(text, 0, /*anchored=*/true, /*full=*/true,
                /*first_only=*/true, &scratch, &r);
}

}  // namespace mhx::regex
