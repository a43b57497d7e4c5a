#include "src/sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace pip {
namespace sql {

bool Token::Is(std::string_view upper) const {
  return kind == TokenKind::kIdent && text.size() == upper.size() &&
         std::equal(text.begin(), text.end(), upper.begin(), [](char a, char b) {
           return std::toupper(static_cast<unsigned char>(a)) == b;
         });
}

StatusOr<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  // Statements average a little over two characters per token.
  tokens.reserve(input.size() / 2 + 1);
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      token.kind = TokenKind::kIdent;
      token.text = input.substr(start, i - start);
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
                       ((input[i] == '+' || input[i] == '-') && i > start &&
                        (input[i - 1] == 'e' || input[i - 1] == 'E')))) {
        ++i;
      }
      token.kind = TokenKind::kNumber;
      token.text = input.substr(start, i - start);
      char* end = nullptr;
      token.number = std::strtod(token.text.c_str(), &end);
      if (end != token.text.c_str() + token.text.size()) {
        return Status::InvalidArgument("malformed number '" + token.text +
                                       "' at position " +
                                       std::to_string(start));
      }
    } else if (c == '\'') {
      size_t start = ++i;
      std::string value;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // Escaped quote.
            value += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value += input[i++];
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string at position " +
                                       std::to_string(start - 1));
      }
      token.kind = TokenKind::kString;
      token.text = std::move(value);
    } else {
      // Two-character operators first.
      if (i + 1 < n) {
        std::string two = input.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          token.kind = TokenKind::kSymbol;
          token.text = two;
          i += 2;
          tokens.push_back(std::move(token));
          continue;
        }
      }
      static const std::string kSingles = "(),.*+-/<>=;";
      if (kSingles.find(c) == std::string::npos) {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at position " +
                                       std::to_string(i));
      }
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace pip
