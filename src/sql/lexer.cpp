#include "sql/lexer.h"

#include <cctype>
#include <charconv>

#include "base/logging.h"

namespace genesis::sql {

namespace {

/** Character-stream cursor with line/column tracking. */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}

    bool done() const { return pos_ >= text_.size(); }
    char peek(size_t ahead = 0) const
    {
        size_t i = pos_ + ahead;
        return i < text_.size() ? text_[i] : '\0';
    }

    char
    advance()
    {
        char c = text_[pos_++];
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    int line() const { return line_; }
    int column() const { return column_; }

  private:
    const std::string &text_;
    size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

std::vector<Token>
tokenize(const std::string &text)
{
    std::vector<Token> tokens;
    Cursor cur(text);

    auto make = [&](TokenKind kind, std::string tok_text = "") {
        Token t;
        t.kind = kind;
        t.text = std::move(tok_text);
        t.line = cur.line();
        t.column = cur.column();
        return t;
    };

    while (!cur.done()) {
        char c = cur.peek();
        if (std::isspace(static_cast<unsigned char>(c))) {
            cur.advance();
            continue;
        }
        // Comments.
        if (c == '-' && cur.peek(1) == '-') {
            while (!cur.done() && cur.peek() != '\n')
                cur.advance();
            continue;
        }
        if (c == '/' && cur.peek(1) == '*') {
            cur.advance();
            cur.advance();
            while (!cur.done() &&
                   !(cur.peek() == '*' && cur.peek(1) == '/')) {
                cur.advance();
            }
            if (cur.done())
                fatal("unterminated block comment at line %d", cur.line());
            cur.advance();
            cur.advance();
            continue;
        }
        // Identifiers / variables / temp names.
        if (isIdentStart(c) || c == '@' || c == '#') {
            TokenKind kind = TokenKind::Identifier;
            if (c == '@') {
                kind = TokenKind::Variable;
                cur.advance();
            } else if (c == '#') {
                kind = TokenKind::TempName;
                cur.advance();
            }
            if (!isIdentStart(cur.peek()))
                fatal("expected name after '%c' at line %d", c, cur.line());
            Token t = make(kind);
            while (isIdentChar(cur.peek()))
                t.text.push_back(cur.advance());
            tokens.push_back(std::move(t));
            continue;
        }
        // Numbers.
        if (std::isdigit(static_cast<unsigned char>(c))) {
            Token t = make(TokenKind::Integer);
            while (std::isdigit(static_cast<unsigned char>(cur.peek())) ||
                   cur.peek() == '_') {
                char d = cur.advance();
                if (d != '_')
                    t.text.push_back(d);
            }
            const char *end = t.text.data() + t.text.size();
            if (std::from_chars(t.text.data(), end, t.intValue).ec !=
                std::errc()) {
                fatal("integer literal '%s' out of range at line %d",
                      t.text.c_str(), t.line);
            }
            tokens.push_back(std::move(t));
            continue;
        }
        // Strings.
        if (c == '\'') {
            Token t = make(TokenKind::String);
            cur.advance();
            while (!cur.done() && cur.peek() != '\'')
                t.text.push_back(cur.advance());
            if (cur.done())
                fatal("unterminated string at line %d", t.line);
            cur.advance();
            tokens.push_back(std::move(t));
            continue;
        }
        // Operators and punctuation.
        Token t = make(TokenKind::End);
        cur.advance();
        switch (c) {
          case '(': t.kind = TokenKind::LParen; break;
          case ')': t.kind = TokenKind::RParen; break;
          case ',': t.kind = TokenKind::Comma; break;
          case ';': t.kind = TokenKind::Semicolon; break;
          case '.': t.kind = TokenKind::Dot; break;
          case '*': t.kind = TokenKind::Star; break;
          case ':': t.kind = TokenKind::Colon; break;
          case '+': t.kind = TokenKind::Plus; break;
          case '-': t.kind = TokenKind::Minus; break;
          case '/': t.kind = TokenKind::Slash; break;
          case '%': t.kind = TokenKind::Percent; break;
          case '=':
            if (cur.peek() == '=') {
                cur.advance();
                t.kind = TokenKind::EqEq;
            } else {
                t.kind = TokenKind::Eq;
            }
            break;
          case '!':
            if (cur.peek() == '=') {
                cur.advance();
                t.kind = TokenKind::NotEq;
            } else {
                fatal("unexpected '!' at line %d", cur.line());
            }
            break;
          case '<':
            if (cur.peek() == '=') {
                cur.advance();
                t.kind = TokenKind::LessEq;
            } else if (cur.peek() == '>') {
                cur.advance();
                t.kind = TokenKind::NotEq;
            } else {
                t.kind = TokenKind::Less;
            }
            break;
          case '>':
            if (cur.peek() == '=') {
                cur.advance();
                t.kind = TokenKind::GreaterEq;
            } else {
                t.kind = TokenKind::Greater;
            }
            break;
          default:
            fatal("unexpected character '%c' (0x%02x) at line %d", c,
                  static_cast<unsigned char>(c), cur.line());
        }
        tokens.push_back(std::move(t));
    }
    tokens.push_back(make(TokenKind::End));
    return tokens;
}

} // namespace genesis::sql
