// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// A reference evaluator for path queries, written literally from the axis
// semantics in DESIGN.md — paper Definition 1 restated over node ranges,
// plus the XPath step and predicate rules — against a document's flat node
// table and its boundary-derived leaf partition. Every step is a full scan
// of the table under the axis's defining predicate. It shares nothing with
// the engine's step path: no RangeIndex, planner, kernels, overlays or
// xpath::AxisEvaluator. It is the oracle the engine's plan modes and
// thread counts are checked against (oracle_test, parallel_query_test,
// planner_test).
//
// Queries are test-local step lists, rendered to XQuery text for the
// engine by Render(). Supported: absolute and relative paths over all 16
// axes; name, `*`, node() and leaf() tests; integer positional predicates;
// relative-path existence predicates under and/or/not(). A position counts
// in document order on every axis, as the engine counts it; XPath counts
// the reverse axes (ancestor, preceding, ...) nearest-first instead.

#ifndef MHX_TESTS_REFERENCE_EVAL_H_
#define MHX_TESTS_REFERENCE_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "base/text_range.h"
#include "goddag/kygoddag.h"
#include "xpath/axes.h"

namespace mhx::reference {

struct Predicate;

// One path step: axis, node test, predicates in source order.
struct Step {
  enum class Test { kName, kAnyElement, kAnyNode, kLeaf };
  xpath::Axis axis = xpath::Axis::kChild;
  Test test = Test::kAnyNode;
  std::string name;  // kName only
  std::vector<Predicate> predicates;
};

using Path = std::vector<Step>;

// A step predicate: a positional test, or a boolean over relative-path
// existence tests.
struct Predicate {
  enum class Kind { kPosition, kExists, kAnd, kOr, kNot };
  Kind kind = Kind::kPosition;
  int64_t position = 0;             // kPosition
  Path path;                        // kExists
  std::vector<Predicate> operands;  // kAnd/kOr: two; kNot: one
};

// Builders. `test` is "*", "node()", "leaf()" or an element name.
Step S(xpath::Axis axis, const std::string& test,
       std::vector<Predicate> predicates = {});
Predicate Position(int64_t position);
Predicate Exists(Path path);
Predicate And(Predicate a, Predicate b);
Predicate Or(Predicate a, Predicate b);
Predicate Not(Predicate a);

// XQuery text for `path`: "/a::b[...]/c::d" when absolute, "a::b/c::d"
// otherwise. Axes are always spelled out.
std::string Render(const Path& path, bool absolute = true);

// A result item: a node of the table, or a leaf of the partition.
struct Item {
  bool is_leaf = false;
  goddag::NodeId node = goddag::kInvalidNode;  // !is_leaf
  TextRange range;                             // is_leaf
};

class ReferenceEvaluator {
 public:
  // Reads `goddag`'s node table and base text; `goddag` must outlive the
  // evaluator.
  explicit ReferenceEvaluator(const goddag::KyGoddag& goddag);

  // Evaluates `path` from the GODDAG root. InvalidArgument when a step
  // cannot apply to a context the path reaches (an axis with no leaf-context
  // meaning, or leaf() on an axis other than self/child/descendant/
  // descendant-or-self/xdescendant).
  StatusOr<std::vector<Item>> Evaluate(const Path& path) const;
  // Evaluates `path` relative to each item of `context`, returning the
  // union in document order.
  StatusOr<std::vector<Item>> EvaluateFrom(const std::vector<Item>& context,
                                           const Path& path) const;

  // The engine's serialisation contract: elements as tags around their
  // escaped text and child elements, the GODDAG root as its hierarchy
  // roots, a leaf as its escaped base-text characters.
  std::string Serialize(const Item& item) const;
  std::vector<std::string> SerializeAll(const std::vector<Item>& items) const;

  const std::vector<TextRange>& leaves() const { return leaves_; }

 private:
  const goddag::GNode& node(goddag::NodeId id) const {
    return goddag_->node(id);
  }
  bool Live(goddag::NodeId id) const;
  bool Element(goddag::NodeId id) const;
  bool DocLess(const Item& a, const Item& b) const;
  bool Same(const Item& a, const Item& b) const;
  bool IsAncestor(goddag::NodeId ancestor, goddag::NodeId id) const;
  bool Related(xpath::Axis axis, goddag::NodeId context,
               goddag::NodeId candidate) const;
  bool PassesTest(const Step& step, goddag::NodeId id) const;
  // One step from one context item, in document order, before predicates.
  StatusOr<std::vector<Item>> StepFrom(const Item& context,
                                       const Step& step) const;
  StatusOr<bool> Holds(const Predicate& predicate, const Item& item) const;
  void SerializeNode(goddag::NodeId id, std::string* out) const;

  const goddag::KyGoddag* goddag_;
  std::vector<TextRange> leaves_;
};

}  // namespace mhx::reference

#endif  // MHX_TESTS_REFERENCE_EVAL_H_
