#include "analysis/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string>

namespace herd::analysis {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Encoding prefixes that may precede a string/char literal.
bool is_literal_prefix(std::string_view s) {
  return s == "u8" || s == "u" || s == "U" || s == "L";
}
bool is_raw_prefix(std::string_view s) {
  return s == "R" || s == "u8R" || s == "uR" || s == "UR" || s == "LR";
}

/// Three- then two-character punctuators, maximal munch.
std::size_t punct_len(std::string_view rest) {
  static constexpr std::array<std::string_view, 5> k3 = {"<<=", ">>=", "...",
                                                         "->*", "<=>"};
  static constexpr std::array<std::string_view, 19> k2 = {
      "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "^=",
      "&=", "|=", "==", "!=", "<=", ">=", "&&", "||", "<<"};
  for (std::string_view p : k3) {
    if (rest.substr(0, 3) == p) return 3;
  }
  // ">>" is deliberately emitted as ONE token (shift operator); consumers
  // matching template angle brackets split it themselves. Without this,
  // `map<int, vector<int>>` would still lex fine, but `a >> b` would not.
  if (rest.substr(0, 2) == ">>") return 2;
  for (std::string_view p : k2) {
    if (rest.substr(0, 2) == p) return 2;
  }
  return 1;
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  TokenStream run() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\n') {
        newline();
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;  // whitespace: skip, but don't clear line-start
        continue;
      }
      if (c == '\\' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '\n') {
        ++pos_;  // line continuation: preproc survives it
        newline(/*continuation=*/true);
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        preproc_ = true;
        punct();
        continue;
      }
      if (ident_start(c)) {
        ident_or_literal();
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        number();
        continue;
      }
      if (c == '"') {
        string_literal(pos_);
        continue;
      }
      if (c == '\'') {
        char_literal(pos_);
        continue;
      }
      punct();
    }
    return std::move(out_);
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  /// Steps over `n` bytes of a token.
  void keep(std::size_t n) {
    pos_ += n;
    at_line_start_ = false;
  }

  /// Steps over `n` bytes of a comment or literal, counting its newlines.
  void skip(std::size_t n) {
    for (std::size_t i = 0; i < n && pos_ < src_.size(); ++i, ++pos_) {
      if (src_[pos_] == '\n') ++line_;
    }
  }

  void newline(bool continuation = false) {
    ++line_;
    ++pos_;
    if (!continuation) {
      at_line_start_ = true;
      preproc_ = false;
    }
  }

  void emit(Tok kind, std::size_t begin, std::size_t end) {
    Token t;
    t.kind = kind;
    t.text = src_.substr(begin, end - begin);
    t.line = line_;
    t.preproc = preproc_;
    out_.tokens.push_back(t);
  }

  void punct() {
    std::size_t n = punct_len(src_.substr(pos_));
    emit(Tok::kPunct, pos_, pos_ + n);
    keep(n);
  }

  void ident_or_literal() {
    std::size_t begin = pos_;
    std::size_t end = begin;
    while (end < src_.size() && ident_char(src_[end])) ++end;
    std::string_view word = src_.substr(begin, end - begin);
    char next = end < src_.size() ? src_[end] : '\0';
    if (next == '"' && is_raw_prefix(word)) {
      raw_string(begin, end);
      return;
    }
    if (next == '"' && is_literal_prefix(word)) {
      keep(end - begin);  // the prefix belongs to the literal token
      string_literal(begin);
      return;
    }
    if (next == '\'' && is_literal_prefix(word)) {
      keep(end - begin);
      char_literal(begin);
      return;
    }
    emit(Tok::kIdent, begin, end);
    keep(end - begin);
  }

  void number() {
    std::size_t begin = pos_;
    std::size_t end = begin;
    while (end < src_.size()) {
      char c = src_[end];
      if (ident_char(c) || c == '.') {
        ++end;
        continue;
      }
      // Digit separator: 1'000'000. Only a separator when sandwiched
      // between digits/hex digits — otherwise it's a char literal starting.
      if (c == '\'' && end + 1 < src_.size() && ident_char(src_[end + 1]) &&
          end > begin) {
        ++end;
        continue;
      }
      // Exponent signs: 1e+9, 0x1p-3.
      if ((c == '+' || c == '-') && end > begin &&
          (src_[end - 1] == 'e' || src_[end - 1] == 'E' ||
           src_[end - 1] == 'p' || src_[end - 1] == 'P')) {
        ++end;
        continue;
      }
      break;
    }
    emit(Tok::kNumber, begin, end);
    keep(end - begin);
  }

  /// Ordinary string literal starting at the current `"`; `tok_begin` may
  /// point earlier (encoding prefix) so the token text spans the prefix.
  void string_literal(std::size_t tok_begin) {
    std::size_t begin = pos_;  // the opening quote
    std::size_t end = begin + 1;
    while (end < src_.size()) {
      if (src_[end] == '\\' && end + 1 < src_.size()) {
        end += 2;
        continue;
      }
      if (src_[end] == '"') {
        ++end;
        break;
      }
      ++end;
    }
    emit(Tok::kString, tok_begin, end);
    skip(end - begin);
    at_line_start_ = false;
  }

  void char_literal(std::size_t tok_begin) {
    std::size_t begin = pos_;
    std::size_t end = begin + 1;
    while (end < src_.size()) {
      if (src_[end] == '\\' && end + 1 < src_.size()) {
        end += 2;
        continue;
      }
      if (src_[end] == '\'' || src_[end] == '\n') {
        if (src_[end] == '\'') ++end;
        break;
      }
      ++end;
    }
    emit(Tok::kChar, tok_begin, end);
    skip(end - begin);
    at_line_start_ = false;
  }

  /// R"delim( ... )delim" with optional encoding prefix already consumed by
  /// the caller's lookahead (`prefix_begin` .. `quote` is the prefix + R).
  void raw_string(std::size_t prefix_begin, std::size_t quote) {
    std::size_t paren = src_.find('(', quote + 1);
    if (paren == std::string_view::npos) {
      // Malformed; treat the prefix as an identifier and move on.
      emit(Tok::kIdent, prefix_begin, quote);
      keep(quote - prefix_begin);
      return;
    }
    std::string terminator = ")";
    terminator.append(src_.substr(quote + 1, paren - quote - 1));
    terminator += '"';
    std::size_t close = src_.find(terminator, paren + 1);
    std::size_t end =
        close == std::string_view::npos ? src_.size()
                                        : close + terminator.size();
    emit(Tok::kString, prefix_begin, end);
    skip(end - pos_);
    at_line_start_ = false;
  }

  void line_comment() {
    std::size_t end = pos_;
    while (end < src_.size() && src_[end] != '\n') ++end;
    skip(end - pos_);
    at_line_start_ = false;
  }

  void block_comment() {
    std::size_t close = src_.find("*/", pos_ + 2);
    std::size_t end = close == std::string_view::npos ? src_.size() : close + 2;
    skip(end - pos_);
    at_line_start_ = false;
  }

  std::string_view src_;
  TokenStream out_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  bool at_line_start_ = true;
  bool preproc_ = false;
};

}  // namespace

TokenStream lex(std::string_view src) { return Lexer(src).run(); }

std::size_t match_bracket(std::span<const Token> tokens, std::size_t open) {
  std::string_view opener = tokens[open].text;
  std::string_view closer = opener == "(" ? ")"
                            : opener == "[" ? "]"
                            : opener == "{" ? "}"
                                            : ">";
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tok::kPunct) continue;
    std::string_view t = tokens[i].text;
    if (t == opener) ++depth;
    else if (t == closer) --depth;
    else if (closer == ">" && t == ">>") depth -= 2;
    if (depth <= 0) return i;
  }
  return tokens.size();
}

bool is_keyword(std::string_view ident) {
  static constexpr std::string_view kKeywords[] = {
      "alignas",   "alignof",   "asm",        "auto",       "bool",
      "break",     "case",      "catch",      "char",       "char8_t",
      "char16_t",  "char32_t",  "class",      "concept",    "const",
      "consteval", "constexpr", "constinit",  "continue",   "co_await",
      "co_return", "co_yield",  "decltype",   "default",    "delete",
      "do",        "double",    "dynamic_cast", "else",     "enum",
      "explicit",  "export",    "extern",     "false",      "float",
      "for",       "friend",    "goto",       "if",         "inline",
      "int",       "long",      "mutable",    "namespace",  "new",
      "noexcept",  "nullptr",   "operator",   "private",    "protected",
      "public",    "register",  "reinterpret_cast",         "requires",
      "return",    "short",     "signed",     "sizeof",     "static",
      "static_assert",          "static_cast", "struct",    "switch",
      "template",  "this",      "thread_local", "throw",    "true",
      "try",       "typedef",   "typeid",     "typename",   "union",
      "unsigned",  "using",     "virtual",    "void",       "volatile",
      "wchar_t",   "while",
  };
  return std::find(std::begin(kKeywords), std::end(kKeywords), ident) !=
         std::end(kKeywords);
}

}  // namespace herd::analysis
