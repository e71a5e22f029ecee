// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "regex/fragment_pattern.h"

#include "base/chars.h"

namespace mhx::regex {

StatusOr<FragmentPattern> TranslateFragmentPattern(std::string_view pattern) {
  FragmentPattern out;
  std::vector<std::string> open_stack;
  // Inside [...] nothing is markup or a group. Mirrors the regex parser's
  // class lexing: a ']' directly after '[' or '[^' is a literal member.
  bool in_class = false;
  bool class_start = false;
  size_t i = 0;
  while (i < pattern.size()) {
    char c = pattern[i];
    if (c == '\\' && i + 1 < pattern.size()) {
      // Escapes pass through untouched (including \< and \>).
      out.regex.push_back(pattern[i]);
      out.regex.push_back(pattern[i + 1]);
      i += 2;
      class_start = false;
      continue;
    }
    if (in_class) {
      if (c == ']' && !class_start) {
        in_class = false;
      } else if (!(c == '^' && class_start)) {
        // '^' right after '[' keeps the start slot open for a literal ']'.
        class_start = false;
      }
      out.regex.push_back(c);
      ++i;
      continue;
    }
    if (c == '[') {
      in_class = true;
      class_start = true;
    }
    if (c == '(') {
      // A plain capture group written by the user: it consumes a group
      // number in the residual regex, so record a placeholder to keep
      // group_names aligned with group numbering.
      out.group_names.emplace_back();
    }
    if (c != '<') {
      out.regex.push_back(c);
      ++i;
      continue;
    }
    // Markup: <name> or </name>.
    bool closing = i + 1 < pattern.size() && pattern[i + 1] == '/';
    size_t name_begin = i + (closing ? 2 : 1);
    size_t name_end = name_begin;
    while (name_end < pattern.size() && IsXmlNameChar(pattern[name_end])) {
      ++name_end;
    }
    if (name_end == name_begin || name_end >= pattern.size() ||
        pattern[name_end] != '>') {
      return InvalidArgumentError(
          "malformed fragment markup at offset " + std::to_string(i) +
          " in pattern '" + std::string(pattern) + "'");
    }
    std::string name(pattern.substr(name_begin, name_end - name_begin));
    if (closing) {
      if (open_stack.empty() || open_stack.back() != name) {
        return InvalidArgumentError("mismatched closing tag </" + name +
                                    "> in pattern '" + std::string(pattern) +
                                    "'");
      }
      open_stack.pop_back();
      out.regex.push_back(')');
    } else {
      open_stack.push_back(name);
      out.group_names.push_back(name);
      out.regex.push_back('(');
    }
    i = name_end + 1;
  }
  if (!open_stack.empty()) {
    return InvalidArgumentError("unclosed fragment tag <" + open_stack.back() +
                                "> in pattern '" + std::string(pattern) + "'");
  }
  return out;
}

std::string StripContextWildcards(std::string_view pattern) {
  if (pattern.size() >= 2 && pattern.substr(0, 2) == ".*") {
    pattern.remove_prefix(2);
  }
  if (pattern.size() >= 2 && pattern.substr(pattern.size() - 2) == ".*") {
    // The '.' is a wildcard only when an even number of backslashes
    // precedes it: "a\\.*" is an escaped backslash then a real context
    // wildcard, "a\.*" and "a\\\.*" end with an escaped dot + star.
    size_t backslashes = 0;
    while (backslashes + 2 < pattern.size() &&
           pattern[pattern.size() - 3 - backslashes] == '\\') {
      ++backslashes;
    }
    if (backslashes % 2 == 0) pattern.remove_suffix(2);
  }
  return std::string(pattern);
}

}  // namespace mhx::regex
