// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "regex/regex.h"

#include <gtest/gtest.h>

#include <random>
#include <regex>
#include <string>
#include <vector>

namespace mhx::regex {
namespace {

Regex MustCompile(const char* pattern) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << re.status();
  return std::move(re).value();
}

std::vector<TextRange> MatchRanges(const Regex& re, std::string_view text) {
  std::vector<TextRange> out;
  for (const Regex::Match& m : re.FindAll(text)) out.push_back(m.range);
  return out;
}

// --- compilation and syntax errors -----------------------------------------

TEST(RegexCompileTest, AcceptsTheBenchmarkPatterns) {
  EXPECT_TRUE(Regex::Compile("sceaft").ok());
  EXPECT_TRUE(Regex::Compile("[aeiou][^aeiou ]+").ok());
  EXPECT_TRUE(Regex::Compile("sceaft|hweo|thyt|frean").ok());
  EXPECT_TRUE(Regex::Compile("(s(c)e)(aft)").ok());
  EXPECT_TRUE(Regex::Compile(".*ea.*").ok());
  EXPECT_TRUE(Regex::Compile("(a|a)*b").ok());
  EXPECT_TRUE(Regex::Compile("(un)(a(we)?|[b-d]+){1,3}(end|ne)$").ok());
}

TEST(RegexCompileTest, SyntaxErrorsAreAnchoredInvalidArgument) {
  for (const char* bad : {"(ab", "ab)", "[ab", "a{2,1}", "a{", "*a", "+",
                          "a\\", "a{9999}", "[z-a]", "a**"}) {
    auto re = Regex::Compile(bad);
    ASSERT_FALSE(re.ok()) << "pattern '" << bad << "' compiled";
    EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(re.status().message().find("offset"), std::string::npos) << bad;
  }
}

// --- matching semantics ----------------------------------------------------

TEST(RegexMatchTest, LiteralFindAll) {
  Regex re = MustCompile("ab");
  EXPECT_EQ(MatchRanges(re, "abxxabab"),
            (std::vector<TextRange>{{0, 2}, {4, 6}, {6, 8}}));
  EXPECT_TRUE(re.FindAll("xyz").empty());
}

TEST(RegexMatchTest, LeftmostLongestWinsOverAlternationOrder) {
  // A leftmost-first (Perl) engine would match "a"; leftmost-longest
  // matches "ab".
  Regex re = MustCompile("a|ab");
  auto matches = re.FindAll("ab");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 2));
}

TEST(RegexMatchTest, LeftmostWinsOverLonger) {
  // The match at offset 0 wins even though a longer one starts later.
  Regex re = MustCompile("ab|bcd");
  auto matches = re.FindAll("abcd");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 2));
}

TEST(RegexMatchTest, ClassesAndNegation) {
  Regex re = MustCompile("[aeiou][^aeiou ]+");
  auto matches = MatchRanges(re, "sceaft");
  // The only vowel followed by at least one non-vowel is the 'a' of "aft"
  // ('e' is followed by the vowel 'a').
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], TextRange(3, 6));  // "aft"
}

TEST(RegexMatchTest, EscapedClassRangeEndpoints) {
  // Range endpoints go through escape translation: [a-\n] is 'a'..0x0a,
  // an invalid (reversed) range — not the silent 'a'..'n' a raw read gives.
  EXPECT_FALSE(Regex::Compile("[a-\\n]").ok());
  Regex tab = MustCompile("[\\t-\\r]+");  // 0x09..0x0d, all whitespace ctrls
  EXPECT_TRUE(tab.FullMatch("\t\n\r"));
  EXPECT_FALSE(tab.ContainsMatch("mno"));  // must NOT match the raw letters
  EXPECT_FALSE(Regex::Compile("[0-\\d]").ok());  // \d cannot end a range
}

TEST(RegexMatchTest, EscapesAndPerlClasses) {
  EXPECT_TRUE(MustCompile("\\d+").FullMatch("12345"));
  EXPECT_FALSE(MustCompile("\\d+").FullMatch("12a45"));
  EXPECT_TRUE(MustCompile("\\w+").FullMatch("un_awe9"));
  EXPECT_TRUE(MustCompile("a\\.b").FullMatch("a.b"));
  EXPECT_FALSE(MustCompile("a\\.b").FullMatch("axb"));
  EXPECT_TRUE(MustCompile("a\\\\b").FullMatch("a\\b"));
  EXPECT_TRUE(MustCompile("[\\d]+").FullMatch("42"));
}

TEST(RegexMatchTest, CapturesReportGroupRanges) {
  Regex re = MustCompile("(s(c)e)(aft)");
  auto matches = re.FindAll("xsceaftx");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(1, 7));
  ASSERT_EQ(matches[0].groups.size(), 3u);
  EXPECT_EQ(matches[0].groups[0], TextRange(1, 4));  // "sce"
  EXPECT_EQ(matches[0].groups[1], TextRange(2, 3));  // "c"
  EXPECT_EQ(matches[0].groups[2], TextRange(4, 7));  // "aft"
}

TEST(RegexMatchTest, UnmatchedGroupsAreEmptyAtZero) {
  Regex re = MustCompile("a(b)?c");
  auto matches = re.FindAll("ac");
  ASSERT_EQ(matches.size(), 1u);
  ASSERT_EQ(matches[0].groups.size(), 1u);
  EXPECT_EQ(matches[0].groups[0], TextRange(0, 0));
}

TEST(RegexMatchTest, QuantifierEdgeCases) {
  EXPECT_TRUE(MustCompile("a{3}").FullMatch("aaa"));
  EXPECT_FALSE(MustCompile("a{3}").FullMatch("aa"));
  EXPECT_TRUE(MustCompile("a{2,}").FullMatch("aaaaa"));
  EXPECT_FALSE(MustCompile("a{2,}").FullMatch("a"));
  EXPECT_TRUE(MustCompile("a{0,2}").FullMatch(""));
  EXPECT_TRUE(MustCompile("a{0,2}").FullMatch("aa"));
  EXPECT_FALSE(MustCompile("a{0,2}").FullMatch("aaa"));
  EXPECT_TRUE(MustCompile("(ab){1,3}").FullMatch("ababab"));
  EXPECT_FALSE(MustCompile("(ab){1,3}").FullMatch("abababab"));
  // Greedy repetition still backs off to let the suffix match.
  EXPECT_TRUE(MustCompile("a*ab").FullMatch("aaab"));
  // An empty-matching body must not loop the VM.
  EXPECT_TRUE(MustCompile("(a?)*b").FullMatch("aab"));
}

TEST(RegexMatchTest, AnchorsBindToTextEnds) {
  Regex re = MustCompile("(end|ne)$");
  EXPECT_TRUE(re.ContainsMatch("unawend-ne"));
  EXPECT_FALSE(re.ContainsMatch("ne-wyrd"));
  Regex caret = MustCompile("^un");
  EXPECT_TRUE(caret.ContainsMatch("unawe"));
  EXPECT_FALSE(caret.ContainsMatch("aunwe"));
}

TEST(RegexMatchTest, ContainsAndFullMatch) {
  Regex re = MustCompile("ea");
  EXPECT_TRUE(re.ContainsMatch("sceaft"));
  EXPECT_FALSE(re.ContainsMatch("wyrd"));
  EXPECT_TRUE(re.FullMatch("ea"));
  EXPECT_FALSE(re.FullMatch("sceaft"));
  EXPECT_TRUE(MustCompile(".*ea.*").FullMatch("sceaft"));
}

TEST(RegexMatchTest, WildcardContextShape) {
  Regex re = MustCompile(".*un(a)we.*");
  auto matches = re.FindAll("unawendendne");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 12));  // leftmost-longest: all
  ASSERT_EQ(matches[0].groups.size(), 1u);
  EXPECT_EQ(matches[0].groups[0], TextRange(2, 3));
}

TEST(RegexMatchTest, PathologicalPatternStaysLinear) {
  // (a|a)*b over a^n: exponential for backtrackers. The thread population
  // is bounded by the program size, so this returns quickly even at 4096.
  Regex re = MustCompile("(a|a)*b");
  std::string text(4096, 'a');
  EXPECT_FALSE(re.FullMatch(text));
  text.push_back('b');
  EXPECT_TRUE(re.FullMatch(text));
}

TEST(RegexCompileTest, DeepGroupNestingErrorsInsteadOfOverflowing) {
  std::string pattern(100000, '(');
  pattern += "a";
  pattern.append(100000, ')');
  auto re = Regex::Compile(pattern);
  ASSERT_FALSE(re.ok());
  EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(re.status().message().find("nested deeper"), std::string::npos);
}

TEST(RegexMatchTest, EmptyMatchesDoNotLoopFindAll) {
  Regex re = MustCompile("a*");
  auto matches = re.FindAll("ba");
  // One empty match at 0, then "a" at [1,2), then one empty match at end.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].range, TextRange(0, 0));
  EXPECT_EQ(matches[1].range, TextRange(1, 2));
  EXPECT_EQ(matches[2].range, TextRange(2, 2));
}

// --- required-literal prefilter ---------------------------------------------

TEST(RegexLiteralTest, ExtractsTheLongestMandatoryLiteral) {
  EXPECT_EQ(MustCompile(".*ea.*").required_literal(), "ea");
  // Groups are looked through: the fragment residual keeps its literal.
  EXPECT_EQ(MustCompile("un(a)we").required_literal(), "unawe");
  EXPECT_EQ(MustCompile(".*un(a(w)e)nden(dne).*").required_literal(),
            "unawendendne");
  EXPECT_EQ(MustCompile("x[ab]yz").required_literal(), "yz");
  EXPECT_EQ(MustCompile("(ab)+c").required_literal(), "ab");
  EXPECT_EQ(MustCompile("a{3}b").required_literal(), "aaab");
  EXPECT_EQ(MustCompile("^ab$").required_literal(), "ab");
  // Alternations, classes and optional repeats require nothing.
  EXPECT_EQ(MustCompile("sceaft|hweo").required_literal(), "");
  EXPECT_EQ(MustCompile("(abc)?d").required_literal(), "d");
  EXPECT_EQ(MustCompile("(abc)*").required_literal(), "");
  EXPECT_EQ(MustCompile("[ab]+").required_literal(), "");
}

TEST(RegexLiteralTest, FindAllStopsWhenTheRestLacksTheLiteral) {
  Regex re = MustCompile("a.b");
  EXPECT_EQ(MatchRanges(re, "axbab_ayb"),
            (std::vector<TextRange>{TextRange(0, 3), TextRange(6, 9)}));
  EXPECT_TRUE(re.FindAll("aaaa").empty());
}

// A random pattern over the syntax this engine and ECMAScript std::regex
// agree on, biased towards literal runs inside groups, alternations and
// repeats. Anchors only at the ends, never quantified. Groups take only
// bounded quantifiers: std::regex backtracks, and an unbounded repeat of
// a group that can match empty sends it exponential.
class PatternGenerator {
 public:
  explicit PatternGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next(bool anchors) {
    std::string p;
    if (anchors && Pick(4) == 0) p += "^";
    p += Alternation(2);
    if (anchors && Pick(4) == 0) p += "$";
    return p;
  }

  std::string Text(size_t max_length) {
    static const char kAlphabet[] = {'a', 'b', 'c', 'a', 'b', '\n', ' '};
    std::string text;
    const size_t length = Pick(max_length + 1);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(kAlphabet[Pick(sizeof(kAlphabet))]);
    }
    return text;
  }

 private:
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::string Alternation(int depth) {
    std::string p = Concat(depth);
    while (Pick(4) == 0) p += "|" + Concat(depth);
    return p;
  }

  std::string Concat(int depth) {
    std::string p;
    const size_t pieces = 1 + Pick(4);
    for (size_t i = 0; i < pieces; ++i) p += Piece(depth);
    return p;
  }

  std::string Piece(int depth) {
    static const char* const kQuantifiers[] = {
        "", "", "", "", "?", "{2}", "{1,2}", "{0,1}", "*", "+"};
    switch (Pick(depth > 0 ? 10 : 8)) {
      case 0:
        return "." + std::string(kQuantifiers[Pick(10)]);
      case 1:
        return "[ab]" + std::string(kQuantifiers[Pick(10)]);
      case 2:
        return "[^b]" + std::string(kQuantifiers[Pick(10)]);
      case 3:
        return "\\s" + std::string(kQuantifiers[Pick(10)]);
      case 8:
      case 9:
        return "(" + Alternation(depth - 1) + ")" + kQuantifiers[Pick(8)];
      default:
        return std::string(1, "abc"[Pick(3)]) + kQuantifiers[Pick(10)];
    }
  }

  std::mt19937_64 rng_;
};

// ContainsMatch/FullMatch against std::regex existence: the prefilter may
// only ever turn a VM run into the answer the VM would have given.
TEST(RegexOracleTest, ExistenceAgreesWithStdRegex) {
  PatternGenerator gen(20261017);
  for (int i = 0; i < 1000; ++i) {
    const std::string pattern = gen.Next(/*anchors=*/true);
    SCOPED_TRACE("pattern " + pattern);
    Regex re = MustCompile(pattern.c_str());
    const std::regex reference(pattern, std::regex::ECMAScript);
    for (int t = 0; t < 24; ++t) {
      const std::string text = gen.Text(16);
      EXPECT_EQ(re.ContainsMatch(text), std::regex_search(text, reference))
          << "ContainsMatch on '" << text << "'";
      EXPECT_EQ(re.FullMatch(text), std::regex_match(text, reference))
          << "FullMatch on '" << text << "'";
    }
  }
}

// FindAll against a brute-force leftmost-longest scan: from the resume
// position, the first start with any match, then its longest end; an
// empty match resumes one past itself.
TEST(RegexOracleTest, FindAllAgreesWithBruteForceLeftmostLongest) {
  PatternGenerator gen(7);
  for (int i = 0; i < 400; ++i) {
    const std::string pattern = gen.Next(/*anchors=*/false);
    SCOPED_TRACE("pattern " + pattern);
    Regex re = MustCompile(pattern.c_str());
    const std::regex reference(pattern, std::regex::ECMAScript);
    for (int t = 0; t < 8; ++t) {
      const std::string text = gen.Text(12);
      std::vector<TextRange> expected;
      size_t pos = 0;
      while (pos <= text.size()) {
        bool found = false;
        for (size_t b = pos; b <= text.size() && !found; ++b) {
          for (size_t e = text.size() + 1; e-- > b;) {
            if (std::regex_match(text.begin() + b, text.begin() + e,
                                 reference)) {
              expected.push_back(TextRange(b, e));
              pos = e > b ? e : e + 1;
              found = true;
              break;
            }
          }
        }
        if (!found) break;
      }
      EXPECT_EQ(MatchRanges(re, text), expected) << "FindAll on '" << text
                                                 << "'";
    }
  }
}

}  // namespace
}  // namespace mhx::regex
