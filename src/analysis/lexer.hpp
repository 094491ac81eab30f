// herd::analysis — C++ tokenizer.
//
// The lexical layer of the herd_lint engine. One pass over a source file
// produces the token stream (identifiers, numbers, string/char literals,
// punctuators) with line numbers that every rule and the per-TU indexer
// read. Comments produce no tokens and a literal is one token, so a
// `rand()` in a comment or a log string never reaches a rule.
//
// The tokenizer handles the constructs a regex can't: raw string literals
// with custom delimiters (R"x(...)x", including encoding prefixes u8R/LR),
// digit separators (1'000'000 lexes as ONE number token, not a number and a
// character literal), nested template argument lists (>> is emitted as a
// single punctuator; match_bracket splits it when matching angle brackets),
// line continuations in preprocessor directives, and escape sequences in
// ordinary literals. Preprocessor directive tokens are kept but flagged, so
// the indexer can skip `#define` bodies while the per-file rules still see
// them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace herd::analysis {

enum class Tok : std::uint8_t {
  kIdent,   // identifiers and keywords
  kNumber,  // pp-numbers: 0x1f, 1'000'000, 3.5e-2, 42u
  kString,  // string literal, including raw strings (text spans delimiters)
  kChar,    // character literal
  kPunct,   // operators and punctuation, maximal munch (>>, ->, +=, ::)
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string_view text;   // view into the source buffer passed to lex()
  std::uint32_t line = 0;  // 1-based
  bool preproc = false;    // inside a preprocessor directive
};

struct TokenStream {
  std::vector<Token> tokens;
};

/// Tokenizes `src`. Token text views point into `src`, which must outlive
/// the stream. Never throws on malformed input: unterminated literals and
/// stray bytes degrade to best-effort tokens, because a linter must keep
/// walking the tree no matter what one file contains.
TokenStream lex(std::string_view src);

inline bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}

/// Index of the token closing the `(`, `[`, `{` or `<` at `open`, or
/// tokens.size() when it is unbalanced. Only brackets of the opener's kind
/// count; when matching angle brackets `>>` closes two levels.
std::size_t match_bracket(std::span<const Token> tokens, std::size_t open);

/// True for C++ keywords that can never be call targets or declared names
/// the index cares about (if/for/while/return/sizeof/...).
bool is_keyword(std::string_view ident);

}  // namespace herd::analysis
