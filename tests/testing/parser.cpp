#include "parser.hpp"

#include "presburger_ops.hpp"

#include "presburger/constraint.hpp"
#include "presburger/polyhedron.hpp"
#include "support/assert.hpp"

#include <cctype>
#include <optional>
#include <vector>

namespace pipoly::pb {

namespace {

struct Token {
  enum class Kind {
    Ident,
    Int,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Colon,
    Arrow,
    Plus,
    Minus,
    Star,
    Le,
    Lt,
    Ge,
    Gt,
    Eq,
    And,
    End,
  };
  Kind kind;
  std::string text;
  Value value = 0;
};

class Lexer {
public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  bool accept(Token::Kind k) {
    if (current_.kind != k)
      return false;
    advance();
    return true;
  }

  Token expect(Token::Kind k, const char* what) {
    PIPOLY_CHECK_MSG(current_.kind == k, std::string("parse error: expected ") +
                                             what + " near '" +
                                             current_.text + "'");
    return take();
  }

private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ >= text_.size()) {
      current_ = {Token::Kind::End, "<end>"};
      return;
    }
    const char c = text_[pos_];
    auto single = [&](Token::Kind k) {
      current_ = {k, std::string(1, c)};
      ++pos_;
    };
    switch (c) {
    case '{':
      return single(Token::Kind::LBrace);
    case '}':
      return single(Token::Kind::RBrace);
    case '[':
      return single(Token::Kind::LBracket);
    case ']':
      return single(Token::Kind::RBracket);
    case '(':
      return single(Token::Kind::LParen);
    case ')':
      return single(Token::Kind::RParen);
    case ',':
      return single(Token::Kind::Comma);
    case ':':
      return single(Token::Kind::Colon);
    case '+':
      return single(Token::Kind::Plus);
    case '*':
      return single(Token::Kind::Star);
    case '-':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
        current_ = {Token::Kind::Arrow, "->"};
        pos_ += 2;
        return;
      }
      return single(Token::Kind::Minus);
    case '<':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        current_ = {Token::Kind::Le, "<="};
        pos_ += 2;
        return;
      }
      return single(Token::Kind::Lt);
    case '>':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        current_ = {Token::Kind::Ge, ">="};
        pos_ += 2;
        return;
      }
      return single(Token::Kind::Gt);
    case '=':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=')
        ++pos_;
      current_ = {Token::Kind::Eq, "="};
      ++pos_;
      return;
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      std::string num(text_.substr(start, pos_ - start));
      current_ = {Token::Kind::Int, num, std::stoll(num)};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        ++pos_;
      std::string word(text_.substr(start, pos_ - start));
      if (word == "and")
        current_ = {Token::Kind::And, word};
      else
        current_ = {Token::Kind::Ident, word};
      return;
    }
    PIPOLY_UNREACHABLE(std::string("parse error: unexpected character '") + c +
                       "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

struct TupleDecl {
  std::string spaceName;
  std::vector<std::string> vars;
};

class Parser {
public:
  Parser(std::string_view text, const ParamBindings& params)
      : lexer_(text), params_(params) {}

  /// Parses either a set or a map body; `isMap` selects the shape.
  void parseBody(bool isMap) {
    lexer_.expect(Token::Kind::LBrace, "'{'");
    in_ = parseTupleDecl("S");
    if (isMap) {
      lexer_.expect(Token::Kind::Arrow, "'->'");
      out_ = parseTupleDecl("T");
    }
    bindVars(isMap);
    if (lexer_.accept(Token::Kind::Colon))
      parseCondition();
    lexer_.expect(Token::Kind::RBrace, "'}'");
    lexer_.expect(Token::Kind::End, "end of input");
  }

  IntTupleSet buildSet() const {
    Polyhedron poly(numDims_, constraints_);
    return IntTupleSet::fromPolyhedron(Space(in_.spaceName, in_.vars.size()),
                                       poly);
  }

  IntMap buildMap() const {
    Polyhedron poly(numDims_, constraints_);
    const std::size_t inArity = in_.vars.size();
    const std::size_t outArity = out_.vars.size();
    std::vector<IntMap::Pair> pairs;
    for (const Tuple& pt : enumerate(poly))
      pairs.emplace_back(pt.slice(0, inArity),
                         pt.slice(inArity, inArity + outArity));
    return IntMap(Space(in_.spaceName, inArity), Space(out_.spaceName, outArity),
                  std::move(pairs));
  }

private:
  TupleDecl parseTupleDecl(const char* defaultName) {
    TupleDecl decl;
    decl.spaceName = defaultName;
    if (lexer_.peek().kind == Token::Kind::Ident)
      decl.spaceName = lexer_.take().text;
    lexer_.expect(Token::Kind::LBracket, "'['");
    if (lexer_.peek().kind != Token::Kind::RBracket) {
      decl.vars.push_back(
          lexer_.expect(Token::Kind::Ident, "tuple variable").text);
      while (lexer_.accept(Token::Kind::Comma))
        decl.vars.push_back(
            lexer_.expect(Token::Kind::Ident, "tuple variable").text);
    }
    lexer_.expect(Token::Kind::RBracket, "']'");
    return decl;
  }

  void bindVars(bool isMap) {
    numDims_ = in_.vars.size() + (isMap ? out_.vars.size() : 0);
    std::size_t idx = 0;
    for (const std::string& v : in_.vars)
      varIndex_[v] = idx++;
    if (isMap)
      for (const std::string& v : out_.vars) {
        PIPOLY_CHECK_MSG(!varIndex_.count(v),
                         "duplicate tuple variable '" + v + "'");
        varIndex_[v] = idx++;
      }
  }

  void parseCondition() {
    parseChainedRelation();
    while (lexer_.accept(Token::Kind::And))
      parseChainedRelation();
  }

  void parseChainedRelation() {
    AffineExpr lhs = parseExpr();
    bool any = false;
    while (true) {
      Token::Kind k = lexer_.peek().kind;
      if (k != Token::Kind::Le && k != Token::Kind::Lt &&
          k != Token::Kind::Ge && k != Token::Kind::Gt &&
          k != Token::Kind::Eq)
        break;
      lexer_.take();
      AffineExpr rhs = parseExpr();
      switch (k) {
      case Token::Kind::Le:
        constraints_.push_back(Constraint::le(lhs, rhs));
        break;
      case Token::Kind::Lt:
        constraints_.push_back(Constraint::lt(lhs, rhs));
        break;
      case Token::Kind::Ge:
        constraints_.push_back(Constraint::le(rhs, lhs));
        break;
      case Token::Kind::Gt:
        constraints_.push_back(Constraint::lt(rhs, lhs));
        break;
      case Token::Kind::Eq:
        constraints_.push_back(Constraint::eq(lhs - rhs));
        break;
      default:
        PIPOLY_UNREACHABLE("relation");
      }
      lhs = std::move(rhs);
      any = true;
    }
    PIPOLY_CHECK_MSG(any, "expected a comparison operator in condition");
  }

  AffineExpr parseExpr() {
    AffineExpr acc = parseTerm();
    while (true) {
      if (lexer_.accept(Token::Kind::Plus))
        acc = acc + parseTerm();
      else if (lexer_.accept(Token::Kind::Minus))
        acc = acc - parseTerm();
      else
        return acc;
    }
  }

  AffineExpr parseTerm() {
    if (lexer_.accept(Token::Kind::Minus))
      return -parseTerm();
    if (lexer_.peek().kind == Token::Kind::LParen) {
      lexer_.take();
      AffineExpr e = parseExpr();
      lexer_.expect(Token::Kind::RParen, "')'");
      return e;
    }
    if (lexer_.peek().kind == Token::Kind::Int) {
      Value v = lexer_.take().value;
      // Optional multiplication: 2*i or 2i or 2*N.
      bool star = lexer_.accept(Token::Kind::Star);
      if (star || lexer_.peek().kind == Token::Kind::Ident) {
        AffineExpr var = parseAtomVar();
        return v * var;
      }
      return AffineExpr::constant(numDims_, v);
    }
    return parseAtomVar();
  }

  AffineExpr parseAtomVar() {
    Token t = lexer_.expect(Token::Kind::Ident, "variable or parameter");
    auto it = varIndex_.find(t.text);
    if (it != varIndex_.end())
      return AffineExpr::dim(numDims_, it->second);
    auto pit = params_.find(t.text);
    PIPOLY_CHECK_MSG(pit != params_.end(),
                     "unknown identifier '" + t.text +
                         "' (not a tuple variable, no parameter binding)");
    return AffineExpr::constant(numDims_, pit->second);
  }

  Lexer lexer_;
  const ParamBindings& params_;
  TupleDecl in_, out_;
  std::size_t numDims_ = 0;
  std::map<std::string, std::size_t> varIndex_;
  std::vector<Constraint> constraints_;
};

} // namespace

IntTupleSet parseSet(std::string_view text, const ParamBindings& params) {
  Parser p(text, params);
  p.parseBody(/*isMap=*/false);
  return p.buildSet();
}

IntMap parseMap(std::string_view text, const ParamBindings& params) {
  Parser p(text, params);
  p.parseBody(/*isMap=*/true);
  return p.buildMap();
}

} // namespace pipoly::pb
