// Lexer / parser / printer / analysis tests for the mini-C subset,
// including the requirement that every study-snippet variant parses.
#include <gtest/gtest.h>

#include "lang/analysis.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "snippets/snippet.h"
#include "util/check.h"

namespace {

using namespace decompeval::lang;

TEST(Lexer, TokenKindsAndLines) {
  const auto tokens = lex("int x = 0x1fLL; // comment\n\"str\" '\\n' ->");
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_TRUE(tokens[0].is_identifier("int"));
  EXPECT_TRUE(tokens[1].is_identifier("x"));
  EXPECT_TRUE(tokens[2].is_punct("="));
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "0x1fLL");
  EXPECT_EQ(tokens[5].kind, TokenKind::kString);
  EXPECT_EQ(tokens[5].span.line, 2);
  EXPECT_EQ(tokens[5].span.col, 1);
  EXPECT_EQ(tokens[6].kind, TokenKind::kCharLiteral);
  EXPECT_TRUE(tokens[7].is_punct("->"));
  EXPECT_EQ(tokens.back().kind, TokenKind::kEndOfFile);
}

TEST(Lexer, BlockCommentsAndErrors) {
  const auto tokens = lex("a /* multi\nline */ b");
  EXPECT_EQ(tokens.size(), 3u);  // a, b, EOF
  EXPECT_THROW(lex("\"unterminated"), decompeval::PreconditionError);
  EXPECT_THROW(lex("/* unterminated"), decompeval::PreconditionError);
}

TEST(Parser, SimpleFunction) {
  const Function fn = parse_function(
      "int add(int a, int b) { return a + b; }");
  EXPECT_EQ(fn.name, "add");
  EXPECT_EQ(fn.return_type, "int");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "a");
  ASSERT_EQ(fn.body->body.size(), 1u);
  EXPECT_EQ(fn.body->body[0]->kind, StmtKind::kReturn);
}

TEST(Parser, HexRaysCastSoup) {
  const Function fn = parse_function(
      "__int64 f(__int64 a1) {\n"
      "  __int64 v7;\n"
      "  v7 = *(_QWORD *)(8LL * 2 + *(_QWORD *)(a1 + 8));\n"
      "  return v7;\n"
      "}");
  EXPECT_EQ(fn.name, "f");
  const auto features = structural_features(fn);
  EXPECT_GE(features.cast_count, 2);
  EXPECT_GE(features.pointer_deref_count, 2);
}

TEST(Parser, FunctionPointerParameter) {
  const ParseOptions opts{{"node"}};
  const Function fn = parse_function(
      "int walk(node *root, int (*visit)(void *aux, node *n), void *aux) "
      "{ return visit(aux, root); }",
      opts);
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[1].name, "visit");
  EXPECT_NE(fn.params[1].type_text.find("(*)"), std::string::npos);
}

TEST(Parser, ControlFlowStatements) {
  const Function fn = parse_function(
      "void f(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (i == 3) continue;\n"
      "    while (n > 0) { n = n - 1; break; }\n"
      "  }\n"
      "  do { n = n + 1; } while (n < 0);\n"
      "}");
  const auto features = structural_features(fn);
  EXPECT_EQ(features.loop_count, 3);
  EXPECT_EQ(features.branch_count, 1);
  EXPECT_GE(features.max_nesting_depth, 2);
}

TEST(Parser, TernaryAndCompoundAssignment) {
  const Function fn = parse_function(
      "int f(int a, int b) { a += b ? 1 : 2; a <<= 1; return a; }");
  EXPECT_EQ(fn.body->body.size(), 3u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_function("int f(int a) {\n  return a +;\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, NestingPastTheBoundIsAParseErrorNotAStackOverflow) {
  // Each shape deepens the parse or the AST by one level per repeat:
  // parentheses, prefix operators, right-associative assignment, nested
  // ternaries, nested blocks, and the left-deep operator, index and call
  // chains that the parser builds in a loop.
  const auto repeat = [](const std::string& unit, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += unit;
    return out;
  };
  const std::size_t n = 100000;
  const std::vector<std::string> bodies = {
      "return " + std::string(n, '(') + "a" + std::string(n, ')') + ";",
      "return " + repeat("- ", n) + "a;",
      "return a" + repeat(" = a", n) + ";",
      "return a" + repeat(" ? a", n) + repeat(" : a", n) + ";",
      std::string(n, '{') + std::string(n, '}') + " return a;",
      "return a" + repeat(" + a", n) + ";",
      "return a" + repeat("[0]", n) + ";",
      "return a" + repeat("()", n) + ";",
  };
  for (const std::string& body : bodies) {
    try {
      parse_function("int f(int a) { " + body + " }");
      FAIL() << "expected ParseError for " << body.substr(0, 40);
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting too deep"),
                std::string::npos);
    }
  }
}

TEST(Parser, ModerateNestingStillParses) {
  const std::size_t n = 200;
  const Function parens = parse_function(
      "int f(int a) { return " + std::string(n, '(') + "a" +
      std::string(n, ')') + "; }");
  ASSERT_EQ(parens.body->body.size(), 1u);
  EXPECT_EQ(parens.body->body[0]->exprs[0]->kind, ExprKind::kIdentifier);
  std::string sum = "a";
  for (std::size_t i = 0; i < n; ++i) sum += " + a";
  EXPECT_NO_THROW(parse_function("int f(int a) { return " + sum + "; }"));
  EXPECT_NO_THROW(parse_function("int f(int a) { " + std::string(n, '{') +
                                 std::string(n, '}') + " return a; }"));
}

TEST(Parser, TypeHeuristics) {
  std::set<std::string> typedefs = {"buffer"};
  EXPECT_TRUE(is_type_like_name("size_t", {}));
  EXPECT_TRUE(is_type_like_name("_QWORD", {}));
  EXPECT_TRUE(is_type_like_name("__int64", {}));
  EXPECT_TRUE(is_type_like_name("buffer", typedefs));
  EXPECT_FALSE(is_type_like_name("buffer", {}));
  EXPECT_FALSE(is_type_like_name("index", {}));
}

// Every variant of every study snippet must parse.
class SnippetParsing
    : public ::testing::TestWithParam<
          std::tuple<std::string, decompeval::snippets::Variant>> {};

TEST_P(SnippetParsing, Parses) {
  const auto& [snippet_id, variant] = GetParam();
  const auto& snippet = decompeval::snippets::snippet_by_id(snippet_id);
  const Function fn =
      parse_function(snippet.source(variant), snippet.parse_options);
  EXPECT_EQ(fn.name, snippet.function_name);
  EXPECT_GE(fn.params.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSnippets, SnippetParsing,
    ::testing::Combine(
        ::testing::Values("AEEK", "BAPL", "TC", "POSTORDER"),
        ::testing::Values(decompeval::snippets::Variant::kOriginal,
                          decompeval::snippets::Variant::kHexRays,
                          decompeval::snippets::Variant::kDirty)));

// Printer round-trip: print → reparse → identical normalized structure.
class PrinterRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<std::string, decompeval::snippets::Variant>> {};

TEST_P(PrinterRoundTrip, PreservesStructure) {
  const auto& [snippet_id, variant] = GetParam();
  const auto& snippet = decompeval::snippets::snippet_by_id(snippet_id);
  const Function original =
      parse_function(snippet.source(variant), snippet.parse_options);
  const std::string printed = to_source(original);
  const Function reparsed = parse_function(printed, snippet.parse_options);
  EXPECT_EQ(subtree_signatures(original), subtree_signatures(reparsed))
      << printed;
  EXPECT_EQ(dataflow_edges(original), dataflow_edges(reparsed));
}

INSTANTIATE_TEST_SUITE_P(
    AllSnippets, PrinterRoundTrip,
    ::testing::Combine(
        ::testing::Values("AEEK", "BAPL", "TC", "POSTORDER"),
        ::testing::Values(decompeval::snippets::Variant::kOriginal,
                          decompeval::snippets::Variant::kHexRays,
                          decompeval::snippets::Variant::kDirty)));

TEST(Dataflow, StraightLineDefUse) {
  const Function fn = parse_function(
      "int f(int a) {\n"
      "  int x = a;\n"   // def a@0(param)... use a, def x
      "  int y = x;\n"   // use x → def of x
      "  return y;\n"    // use y → def of y
      "}");
  const auto edges = dataflow_edges(fn);
  EXPECT_EQ(edges.size(), 3u);  // a→use, x→use, y→use
}

TEST(Dataflow, CompoundAssignmentReadsTarget) {
  const Function fn = parse_function(
      "int f(int a) { a += 1; return a; }");
  const auto edges = dataflow_edges(fn);
  // `a += 1` uses the parameter def, then redefines; `return a` uses the
  // new def.
  EXPECT_EQ(edges.size(), 2u);
}

TEST(Dataflow, RenamingIsInvariant) {
  const Function f1 = parse_function("int f(int a) { int b = a; return b; }");
  const Function f2 = parse_function("int f(int x) { int y = x; return y; }");
  EXPECT_EQ(dataflow_edges(f1), dataflow_edges(f2));
}

TEST(Features, CountsCallsAndLiterals) {
  const Function fn = parse_function(
      "int f(int a) {\n"
      "  g(a, 1);\n"
      "  h(\"text\");\n"
      "  return 42;\n"
      "}");
  const auto features = structural_features(fn);
  EXPECT_EQ(features.call_count, 2);
  EXPECT_EQ(features.callee_names,
            (std::vector<std::string>{"g", "h"}));
  EXPECT_EQ(features.string_literal_count, 1);
  EXPECT_EQ(features.numeric_literal_count, 2);
  EXPECT_EQ(features.return_count, 1);
}

TEST(Analysis, IdentifierOccurrencesInOrder) {
  const Function fn = parse_function("int f(int a) { int b = a; return b; }");
  const auto ids = identifier_occurrences(fn);
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Clone, DeepCopiesFunctionBody) {
  const Function fn = parse_function("int f(int a) { return a + 1; }");
  const StmtPtr copy = clone(*fn.body);
  EXPECT_EQ(subtree_signatures(fn),
            subtree_signatures(fn));  // sanity
  // The copy is structurally identical.
  Function shadow;
  shadow.return_type = fn.return_type;
  shadow.name = fn.name;
  shadow.params = fn.params;
  shadow.body = clone(*fn.body);
  EXPECT_EQ(subtree_signatures(fn), subtree_signatures(shadow));
}

}  // namespace
