/// \file lexer.h
/// \brief Tokenizer for PIP's SQL subset.

#ifndef PIP_SQL_LEXER_H_
#define PIP_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace pip {
namespace sql {

enum class TokenKind {
  kIdent,    ///< Identifiers and keywords (case-insensitive).
  kNumber,   ///< Numeric literal.
  kString,   ///< 'single-quoted' string literal.
  kSymbol,   ///< Punctuation / operators: ( ) , . * + - / < > <= >= = <> !=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   ///< Raw text (identifiers upper-cased separately).
  double number = 0;  ///< Value for kNumber.
  size_t position = 0;

  /// Case-insensitive keyword/identifier comparison against an
  /// upper-case word.
  bool Is(std::string_view upper) const;
  /// Exact symbol comparison.
  bool IsSymbol(std::string_view s) const {
    return kind == TokenKind::kSymbol && text == s;
  }
};

/// Tokenizes `input`. InvalidArgument on malformed literals or characters.
StatusOr<std::vector<Token>> Tokenize(const std::string& input);

}  // namespace sql
}  // namespace pip

#endif  // PIP_SQL_LEXER_H_
