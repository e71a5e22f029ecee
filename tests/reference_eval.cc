// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "reference_eval.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/status_macros.h"

namespace mhx::reference {
namespace {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::NodeId;
using goddag::kInvalidNode;
using xpath::Axis;

// DESIGN.md's Definition-1 table, endpoint by endpoint: does candidate range
// `v` stand in `axis` relation to context range `c`?
bool DefinitionOne(Axis axis, const TextRange& c, const TextRange& v) {
  const bool v_contains_c = v.begin <= c.begin && c.end <= v.end;
  const bool c_contains_v = c.begin <= v.begin && v.end <= c.end;
  switch (axis) {
    case Axis::kXAncestor:
      return v_contains_c;
    case Axis::kXDescendant:
      return c_contains_v;
    case Axis::kOverlapping:
      // Both non-empty, sharing a position, neither containing the other.
      return c.begin < c.end && v.begin < v.end && v.begin < c.end &&
             c.begin < v.end && !v_contains_c && !c_contains_v;
    case Axis::kXFollowing:
      return v.begin >= c.end;
    case Axis::kXPreceding:
      return v.end <= c.begin;
    default:
      return false;
  }
}

// From a leaf, which belongs to every hierarchy, the tree axes that still
// mean something are range relations: its ancestors are the elements
// containing it, its following/preceding the elements after/before it.
bool LeafAxis(Axis axis, Axis* extended) {
  switch (axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kXAncestor:
      *extended = Axis::kXAncestor;
      return true;
    case Axis::kFollowing:
    case Axis::kXFollowing:
      *extended = Axis::kXFollowing;
      return true;
    case Axis::kPreceding:
    case Axis::kXPreceding:
      *extended = Axis::kXPreceding;
      return true;
    case Axis::kXDescendant:
    case Axis::kOverlapping:
      *extended = axis;
      return true;
    default:
      return false;
  }
}

std::string Escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPredicate(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kPosition:
      return std::to_string(p.position);
    case Predicate::Kind::kExists:
      return Render(p.path, /*absolute=*/false);
    case Predicate::Kind::kAnd:
      return "(" + RenderPredicate(p.operands[0]) + " and " +
             RenderPredicate(p.operands[1]) + ")";
    case Predicate::Kind::kOr:
      return "(" + RenderPredicate(p.operands[0]) + " or " +
             RenderPredicate(p.operands[1]) + ")";
    case Predicate::Kind::kNot:
      return "not(" + RenderPredicate(p.operands[0]) + ")";
  }
  return {};
}

}  // namespace

Step S(Axis axis, const std::string& test, std::vector<Predicate> predicates) {
  Step step;
  step.axis = axis;
  step.predicates = std::move(predicates);
  if (test == "*") {
    step.test = Step::Test::kAnyElement;
  } else if (test == "node()") {
    step.test = Step::Test::kAnyNode;
  } else if (test == "leaf()") {
    step.test = Step::Test::kLeaf;
  } else {
    step.test = Step::Test::kName;
    step.name = test;
  }
  return step;
}

Predicate Position(int64_t position) {
  Predicate p;
  p.kind = Predicate::Kind::kPosition;
  p.position = position;
  return p;
}

Predicate Exists(Path path) {
  Predicate p;
  p.kind = Predicate::Kind::kExists;
  p.path = std::move(path);
  return p;
}

Predicate And(Predicate a, Predicate b) {
  Predicate p;
  p.kind = Predicate::Kind::kAnd;
  p.operands = {std::move(a), std::move(b)};
  return p;
}

Predicate Or(Predicate a, Predicate b) {
  Predicate p;
  p.kind = Predicate::Kind::kOr;
  p.operands = {std::move(a), std::move(b)};
  return p;
}

Predicate Not(Predicate a) {
  Predicate p;
  p.kind = Predicate::Kind::kNot;
  p.operands = {std::move(a)};
  return p;
}

std::string Render(const Path& path, bool absolute) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    const Step& step = path[i];
    if (absolute || i > 0) out += "/";
    out += std::string(xpath::AxisName(step.axis)) + "::";
    switch (step.test) {
      case Step::Test::kName:
        out += step.name;
        break;
      case Step::Test::kAnyElement:
        out += "*";
        break;
      case Step::Test::kAnyNode:
        out += "node()";
        break;
      case Step::Test::kLeaf:
        out += "leaf()";
        break;
    }
    for (const Predicate& p : step.predicates) {
      out += "[" + RenderPredicate(p) + "]";
    }
  }
  return out;
}

ReferenceEvaluator::ReferenceEvaluator(const goddag::KyGoddag& goddag)
    : goddag_(&goddag) {
  // The leaf partition: the text cut at 0, at its end, and at every
  // element boundary.
  const size_t n = goddag.base_text().size();
  if (n == 0) return;
  std::set<size_t> cuts = {0, n};
  for (NodeId id = 0; id < goddag.node_table_size(); ++id) {
    if (!Element(id)) continue;
    cuts.insert(node(id).range.begin);
    cuts.insert(node(id).range.end);
  }
  for (auto it = cuts.begin(); std::next(it) != cuts.end(); ++it) {
    leaves_.emplace_back(*it, *std::next(it));
  }
}

bool ReferenceEvaluator::Live(NodeId id) const {
  return node(id).kind != GNodeKind::kFree;
}

bool ReferenceEvaluator::Element(NodeId id) const {
  return node(id).kind == GNodeKind::kElement;
}

bool ReferenceEvaluator::DocLess(const Item& a, const Item& b) const {
  // Begin ascending, longer range first, a node before the leaf sharing its
  // range, NodeId last.
  const TextRange& ra = a.is_leaf ? a.range : node(a.node).range;
  const TextRange& rb = b.is_leaf ? b.range : node(b.node).range;
  if (ra.begin != rb.begin) return ra.begin < rb.begin;
  if (ra.end != rb.end) return ra.end > rb.end;
  if (a.is_leaf != b.is_leaf) return !a.is_leaf;
  return !a.is_leaf && a.node < b.node;
}

bool ReferenceEvaluator::Same(const Item& a, const Item& b) const {
  if (a.is_leaf != b.is_leaf) return false;
  return a.is_leaf ? a.range == b.range : a.node == b.node;
}

bool ReferenceEvaluator::IsAncestor(NodeId ancestor, NodeId id) const {
  for (NodeId p = node(id).parent; p != kInvalidNode; p = node(p).parent) {
    if (p == ancestor) return true;
  }
  return false;
}

bool ReferenceEvaluator::Related(Axis axis, NodeId c, NodeId v) const {
  const GNode& cn = node(c);
  const GNode& vn = node(v);
  switch (axis) {
    case Axis::kSelf:
      return v == c;
    case Axis::kChild:
      return vn.parent == c;
    case Axis::kParent:
      return cn.parent == v;
    case Axis::kDescendant:
      return IsAncestor(c, v);
    case Axis::kDescendantOrSelf:
      return v == c || IsAncestor(c, v);
    case Axis::kAncestor:
      return IsAncestor(v, c);
    case Axis::kAncestorOrSelf:
      return v == c || IsAncestor(v, c);
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Siblings share a parent; their order is the parent's child order.
      if (cn.parent == kInvalidNode || vn.parent != cn.parent || v == c) {
        return false;
      }
      const std::vector<NodeId>& siblings = node(cn.parent).children;
      const auto at_c = std::find(siblings.begin(), siblings.end(), c);
      const auto at_v = std::find(siblings.begin(), siblings.end(), v);
      return axis == Axis::kFollowingSibling ? at_v > at_c : at_v < at_c;
    }
    case Axis::kFollowing:
    case Axis::kPreceding:
      // Within the context's own hierarchy, where ranges nest or are
      // disjoint: after its end, or before its start.
      if (!Element(c) || !Element(v) || v == c ||
          vn.hierarchy != cn.hierarchy) {
        return false;
      }
      return axis == Axis::kFollowing ? vn.range.begin >= cn.range.end
                                      : vn.range.end <= cn.range.begin;
    default:
      // The extended axes: any element of any hierarchy but the context.
      return Element(v) && v != c && DefinitionOne(axis, cn.range, vn.range);
  }
}

bool ReferenceEvaluator::PassesTest(const Step& step, NodeId id) const {
  switch (step.test) {
    case Step::Test::kName:
      return Element(id) && node(id).name == step.name;
    case Step::Test::kAnyElement:
      return Element(id);
    case Step::Test::kAnyNode:
      return Live(id);
    case Step::Test::kLeaf:
      return false;
  }
  return false;
}

StatusOr<std::vector<Item>> ReferenceEvaluator::StepFrom(
    const Item& context, const Step& step) const {
  std::vector<Item> out;
  const std::string axis_name(xpath::AxisName(step.axis));
  if (step.test == Step::Test::kLeaf) {
    switch (step.axis) {
      case Axis::kSelf:
        if (context.is_leaf) out.push_back(context);
        return out;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kXDescendant:
      case Axis::kChild: {
        // A leaf contains only itself and has no children.
        if (context.is_leaf) {
          if (step.axis != Axis::kChild) out.push_back(context);
          return out;
        }
        // The leaves inside the node's range; for child::leaf(), only those
        // outside every child element.
        const TextRange& r = node(context.node).range;
        for (const TextRange& leaf : leaves_) {
          if (leaf.begin < r.begin || leaf.end > r.end) continue;
          bool in_child = false;
          if (step.axis == Axis::kChild) {
            for (NodeId id = 0; id < goddag_->node_table_size(); ++id) {
              const TextRange& cr = node(id).range;
              if (Element(id) && node(id).parent == context.node &&
                  cr.begin <= leaf.begin && leaf.end <= cr.end) {
                in_child = true;
                break;
              }
            }
          }
          if (!in_child) out.push_back(Item{true, kInvalidNode, leaf});
        }
        return out;
      }
      default:
        return InvalidArgumentError(
            "leaf() node test is not supported on axis " + axis_name);
    }
  }
  if (context.is_leaf) {
    Axis extended;
    if (!LeafAxis(step.axis, &extended)) {
      return InvalidArgumentError("axis " + axis_name +
                                  " cannot start from a leaf");
    }
    for (NodeId id = 0; id < goddag_->node_table_size(); ++id) {
      if (Element(id) && PassesTest(step, id) &&
          DefinitionOne(extended, context.range, node(id).range)) {
        out.push_back(Item{false, id, {}});
      }
    }
  } else {
    for (NodeId id = 0; id < goddag_->node_table_size(); ++id) {
      if (Live(id) && PassesTest(step, id) &&
          Related(step.axis, context.node, id)) {
        out.push_back(Item{false, id, {}});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [this](const Item& a, const Item& b) { return DocLess(a, b); });
  return out;
}

StatusOr<bool> ReferenceEvaluator::Holds(const Predicate& predicate,
                                         const Item& item) const {
  switch (predicate.kind) {
    case Predicate::Kind::kPosition:
      return InvalidArgumentError(
          "a positional predicate must stand alone in its brackets");
    case Predicate::Kind::kExists: {
      MHX_ASSIGN_OR_RETURN(std::vector<Item> hits,
                           EvaluateFrom({item}, predicate.path));
      return !hits.empty();
    }
    case Predicate::Kind::kAnd: {
      MHX_ASSIGN_OR_RETURN(bool a, Holds(predicate.operands[0], item));
      if (!a) return false;
      return Holds(predicate.operands[1], item);
    }
    case Predicate::Kind::kOr: {
      MHX_ASSIGN_OR_RETURN(bool a, Holds(predicate.operands[0], item));
      if (a) return true;
      return Holds(predicate.operands[1], item);
    }
    case Predicate::Kind::kNot: {
      MHX_ASSIGN_OR_RETURN(bool a, Holds(predicate.operands[0], item));
      return !a;
    }
  }
  return false;
}

StatusOr<std::vector<Item>> ReferenceEvaluator::EvaluateFrom(
    const std::vector<Item>& context, const Path& path) const {
  std::vector<Item> current = context;
  for (const Step& step : path) {
    std::vector<Item> next;
    for (const Item& item : current) {
      MHX_ASSIGN_OR_RETURN(std::vector<Item> run, StepFrom(item, step));
      // Predicates filter each context's run on its own, in source order;
      // a position counts within what the previous predicates kept.
      for (const Predicate& predicate : step.predicates) {
        std::vector<Item> kept;
        for (size_t i = 0; i < run.size(); ++i) {
          bool keep;
          if (predicate.kind == Predicate::Kind::kPosition) {
            keep = predicate.position == static_cast<int64_t>(i) + 1;
          } else {
            MHX_ASSIGN_OR_RETURN(keep, Holds(predicate, run[i]));
          }
          if (keep) kept.push_back(run[i]);
        }
        run = std::move(kept);
      }
      next.insert(next.end(), run.begin(), run.end());
    }
    std::sort(next.begin(), next.end(),
              [this](const Item& a, const Item& b) { return DocLess(a, b); });
    next.erase(std::unique(next.begin(), next.end(),
                           [this](const Item& a, const Item& b) {
                             return Same(a, b);
                           }),
               next.end());
    current = std::move(next);
  }
  return current;
}

StatusOr<std::vector<Item>> ReferenceEvaluator::Evaluate(
    const Path& path) const {
  return EvaluateFrom({Item{false, goddag_->root(), {}}}, path);
}

void ReferenceEvaluator::SerializeNode(NodeId id, std::string* out) const {
  const GNode& n = node(id);
  if (n.kind == GNodeKind::kRoot) {
    for (NodeId child : n.children) SerializeNode(child, out);
    return;
  }
  const std::string_view text = goddag_->base_text();
  *out += "<" + n.name;
  for (const auto& [name, value] : n.attributes) {
    *out += " " + name + "=\"" + Escape(value) + "\"";
  }
  if (n.children.empty() && n.range.begin >= n.range.end) {
    *out += "/>";
    return;
  }
  *out += ">";
  size_t pos = n.range.begin;
  for (NodeId child : n.children) {
    const TextRange& r = node(child).range;
    *out += Escape(text.substr(pos, r.begin - pos));
    SerializeNode(child, out);
    pos = r.end;
  }
  *out += Escape(text.substr(pos, n.range.end - pos));
  *out += "</" + n.name + ">";
}

std::string ReferenceEvaluator::Serialize(const Item& item) const {
  if (item.is_leaf) {
    return Escape(std::string_view(goddag_->base_text())
                      .substr(item.range.begin,
                              item.range.end - item.range.begin));
  }
  std::string out;
  SerializeNode(item.node, &out);
  return out;
}

std::vector<std::string> ReferenceEvaluator::SerializeAll(
    const std::vector<Item>& items) const {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const Item& item : items) out.push_back(Serialize(item));
  return out;
}

}  // namespace mhx::reference
